"""Seeded inputs for the benchmark's four workloads.

An op is one `multiplets` command line plus what its output must satisfy.
Inputs depend only on (workload, seed, rounds) and are built with the
standard library alone, so generating them never runs the program under
test. The seed changes which inputs are drawn but not what they cost:
it permutes leaves (the cost of a tree depends on its shape only), picks
labels inside a fixed (n, S, m) class, takes n = 5 trees in fixed numbers
per shape, shuffles the amplitudes of exact state files (whose local
Pauli frames are fixed) and draws Haar-random states.

No input repeats within a run, so memoising whole results cannot win;
the only exception is a run longer than an input space allows (more than
two `tables` rounds exhaust the two n = 2 trees). Ops are shuffled within
a round, so each kind of op samples the machine across the whole run.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("tables", "verify", "measure", "recouple")

# Nominal op time of one round, measured on a 2-core Xeon VM. A run makes
# max(1, round(seconds / ROUND_SECONDS)) rounds, each with fresh inputs.
ROUND_SECONDS = {"tables": 14.0, "verify": 6.0, "measure": 6.8, "recouple": 4.5}

NAMED_STATES = ("singlet", "triplet0", "ghz3", "w3", "w4", "dicke42", "w4bar",
                "ghz4", "seq_s1m0")
FOUR_QUBIT_NAMED = ("w4", "dicke42", "w4bar", "ghz4", "seq_s1m0")

# Known values of the named states (README conventions): GHZ states have
# persistency 1 and are maximally connected, W and W-bar states of n
# qubits have persistency n - 1, and the 4-qubit Dicke state has Q = 1.
NAMED_EXPECT = {
    "ghz3": {"persistency": 1, "maximally_connected": True},
    "ghz4": {"persistency": 1, "maximally_connected": True},
    "w3": {"persistency": 2},
    "w4": {"persistency": 3},
    "w4bar": {"persistency": 3},
    "dicke42": {"q": 1.0},
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


class Draw:
    """The run's random source, the inputs it has used and its state files."""

    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set = set()
        self.files: dict[str, bytes] = {}
        self.carry: dict = {}  # what a workload hands from one round to the next

    def fresh(self, make, tries: int = 1000):
        """Call `make()` until it returns a key not used before in the run."""
        for _ in range(tries):
            key = make()
            if key not in self.seen:
                break
        self.seen.add(key)
        return key


def generate(workload: str, seed: int, rounds: int) -> tuple[list[dict], dict[str, bytes]]:
    """Ops of every round, and the state files they read (relative path -> bytes)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    build = {"tables": _tables, "verify": _verify, "measure": _measure,
             "recouple": _recouple}[workload]
    draw = Draw(workload, seed)
    ops: list[dict] = []
    for r in range(rounds):
        round_ops = build(draw, r)
        draw.rng.shuffle(round_ops)
        for index, op in enumerate(round_ops):
            op["id"] = f"r{r}.{index:03d}"
        ops.extend(round_ops)
    return ops, draw.files


# --------------------------------------------------------------------------
# Trees as nested tuples: a leaf is its particle index, a node a pair.


def sequential(leaves):
    tree = leaves[0]
    for leaf in leaves[1:]:
        tree = (tree, leaf)
    return tree


def balanced(leaves):
    if len(leaves) == 1:
        return leaves[0]
    half = (len(leaves) + 1) // 2
    return (balanced(leaves[:half]), balanced(leaves[half:]))


def spec(tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    return f"({spec(tree[0])} {spec(tree[1])})"


def shape(tree) -> str:
    """Unlabelled, mirror-free shape; the cost of an op depends on it alone."""
    if isinstance(tree, int):
        return "x"
    return "(" + " ".join(sorted((shape(tree[0]), shape(tree[1])))) + ")"


def all_trees(particles: tuple[int, ...]) -> list:
    """Every coupling tree over the particles, the smallest always on the left."""
    if len(particles) == 1:
        return [particles[0]]
    head, rest = particles[0], particles[1:]
    out = []
    for mask in range(1 << len(rest)):
        left = (head,) + tuple(p for i, p in enumerate(rest) if mask >> i & 1)
        right = tuple(p for i, p in enumerate(rest) if not mask >> i & 1)
        if right:
            out.extend((a, b) for a in all_trees(left) for b in all_trees(right))
    return out


def _permuted(rng: random.Random, n: int) -> list[int]:
    leaves = list(range(1, n + 1))
    rng.shuffle(leaves)
    return leaves


def _assignments(tree):
    """(doubled total spin, doubled intermediate spins in postorder)."""
    if isinstance(tree, int):
        yield 1, ()
        return
    for jl, il in _assignments(tree[0]):
        for jr, ir in _assignments(tree[1]):
            for j in range(abs(jl - jr), jl + jr + 1, 2):
                yield j, il + ir + (j,)


def label_text(intermediates: tuple[int, ...], two_m: int) -> str:
    """A --label value: the doubled spins halved, then m."""
    return ",".join(str(Fraction(v, 2)) for v in intermediates + (two_m,))


# --------------------------------------------------------------------------
# Workloads


def _fresh_tree(draw: Draw, build, n: int) -> str:
    return draw.fresh(lambda: spec(build(_permuted(draw.rng, n))))


# Trees per n as (sequential, balanced); each runs as text, and as json and
# latex at n <= 8. The counts put op_p50_ms inside the balanced n = 6 ops
# and op_p75_ms inside the balanced n = 7 ops, two ops from either edge,
# rather than on a step of the cost ladder where they would jump from run
# to run; two sequential n = 9 trees give largest_s two samples.
TABLE_TREES = {2: (1, 0), 3: (1, 1), 4: (2, 2), 5: (2, 2), 6: (3, 3), 7: (2, 2),
               8: (1, 1), 9: (2, 1)}


def _tables(draw: Draw, r: int) -> list[dict]:
    """`table` over seeded leaf permutations of sequential and balanced trees."""
    ops = []
    for n, counts in TABLE_TREES.items():
        shapes = (("seq", sequential), ("bal", balanced))
        for (shape_name, build), count in zip(shapes, counts):
            for _ in range(count):
                tree = _fresh_tree(draw, build, n)
                for fmt in ("text", "json", "latex") if n <= 8 else ("text",):
                    ops.append({
                        "group": f"{shape_name}{n}",
                        "argv": ["table", tree, "--format", fmt],
                        "check": {"kind": "table", "n": n, "format": fmt},
                        "largest": n == 9 and shape_name == "seq",
                    })
    return ops


def _verify(draw: Draw, r: int) -> list[dict]:
    """`verify` on a third of the 105 n = 5 trees, so three rounds use each
    tree once, and on sequential and balanced n = 9 trees. Every third has
    the same mix of shapes: 20 caterpillars, 10 of (3 + 2), 5 of ((2 + 2) + 1)."""
    if r % 3 == 0:
        by_shape: dict[str, list] = {}
        for tree in all_trees((1, 2, 3, 4, 5)):
            by_shape.setdefault(shape(tree), []).append(tree)
        for trees in by_shape.values():
            draw.rng.shuffle(trees)
        draw.carry["n5_thirds"] = [
            [t for trees in by_shape.values()
             for t in trees[k * len(trees) // 3:(k + 1) * len(trees) // 3]]
            for k in range(3)]
    ops = [{"group": "n5", "argv": ["verify", spec(t)],
            "check": {"kind": "verify", "n": 5}, "largest": False}
           for t in draw.carry["n5_thirds"][r % 3]]
    for shape_name, build in (("seq", sequential), ("bal", balanced)):
        ops.append({
            "group": f"{shape_name}9",
            "argv": ["verify", _fresh_tree(draw, build, 9)],
            "check": {"kind": "verify", "n": 9},
            "largest": shape_name == "seq",
        })
    return ops


def _dicke(n: int, k: int) -> dict[str, int]:
    """Dicke state with k up spins: config -> sign, all amplitudes 1/sqrt(C(n,k))."""
    return {"".join(c): 1 for c in itertools.product("ud", repeat=n) if c.count("u") == k}


def _ghz(n: int) -> dict[str, int]:
    return {"u" * n: 1, "d" * n: 1}


def _pauli_frame(state: dict[str, int], flip: int, phase: int) -> dict[str, int]:
    """Apply X on the sites in `flip`, then Z on the sites in `phase`."""
    out = {}
    for config, sign in state.items():
        chars = [("d" if ch == "u" else "u") if flip >> i & 1 else ch
                 for i, ch in enumerate(config)]
        downs = sum(1 for i, ch in enumerate(chars) if phase >> i & 1 and ch == "d")
        out["".join(chars)] = sign * (-1) ** downs
    return out


def _frames(state: dict[str, int], n: int, count: int) -> list[dict[str, int]]:
    """The first `count` physically distinct Pauli-frame images of an exact
    state, in a fixed order. A frame changes the order in which the
    searches meet each branch, and so their cost; fixing the frames keeps
    the cost of a run the same for every seed."""
    seen, out = set(), []
    for flip, phase in itertools.product(range(1 << n), repeat=2):
        framed = _pauli_frame(state, flip, phase)
        first = framed[max(framed)]
        key = frozenset((c, s * first) for c, s in framed.items())
        if key not in seen:
            seen.add(key)
            out.append(framed)
            if len(out) == count:
                break
    return out


def _exact_file(n: int, state: dict[str, int], rng: random.Random) -> bytes:
    den = str(len(state))
    entries = [{"config": c, "amp": {"sign": s, "num": "1", "den": den}}
               for c, s in state.items()]
    rng.shuffle(entries)
    return json.dumps({"n": n, "flavor": "exact", "amplitudes": entries}).encode()


def _random_file(n: int, rng: random.Random) -> bytes:
    """A Haar-random state: normalised complex Gaussian amplitudes."""
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    entries = [{"config": "".join(c), "amp": {"re": a.real / norm, "im": a.imag / norm}}
               for c, a in zip(itertools.product("ud", repeat=n), amps)]
    return json.dumps({"n": n, "flavor": "numeric", "amplitudes": entries}).encode()


# (kind, n, files per round); W is Dicke(n, 1). The 6-qubit random states
# are the middle of the run's cost order, so op_p50_ms and op_p75_ms fall
# inside one kind of op rather than on the edge between two.
MEASURE_FILES = (
    ("w", 5, 2), ("dicke2", 5, 2), ("ghz", 5, 2), ("random", 5, 2),
    ("w", 6, 5), ("dicke2", 6, 3), ("ghz", 6, 2), ("random", 6, 14),
)


def _measure(draw: Draw, r: int) -> list[dict]:
    """`measure` on the named states (first round only: they are fixed),
    then on exact W, Dicke(n, 2) and GHZ files and Haar-random files at
    n = 5 and 6."""
    ops = []
    for name in NAMED_STATES if r == 0 else ():
        z = name in FOUR_QUBIT_NAMED
        ops.append({
            "group": "named",
            "argv": ["measure", name] + (["--z-branches"] if z else []),
            "check": {"kind": "measure", "n": None, "z_branches": z,
                      "expect": NAMED_EXPECT.get(name, {})},
            "largest": False,
        })
    for kind, n, copies in MEASURE_FILES:
        expect = {"w": {"persistency": n - 1},
                  "ghz": {"persistency": 1, "maximally_connected": True}}.get(kind, {})
        if kind != "random":
            base = {"w": _dicke(n, 1), "dicke2": _dicke(n, 2), "ghz": _ghz(n)}[kind]
            frames = _frames(base, n, (r + 1) * copies)[r * copies:]
        for copy in range(copies):
            if kind == "random":
                blob = _random_file(n, draw.rng)
            else:
                blob = _exact_file(n, frames[copy], draw.rng)
            path = f"states/r{r}-{kind}{n}-{copy}.json"
            draw.files[path] = blob
            ops.append({
                "group": f"{kind}{n}",
                "argv": ["measure", "--file", path],
                "check": {"kind": "measure", "n": n, "z_branches": False,
                          "expect": expect},
                "largest": kind == "w" and n == 6,
            })
    return ops


def _recouple(draw: Draw, r: int) -> list[dict]:
    """`recouple` from a sequential n = 8 and n = 9 tree, one op per
    (S, m >= 0) class and target, into a balanced and a sequential tree
    with fresh leaf orders; then `expand` of single n = 10 labels."""
    ops = []
    for n in (8, 9):
        source = sequential(_permuted(draw.rng, n))
        by_spin: dict[int, list] = {}
        for two_s, inter in _assignments(source):
            by_spin.setdefault(two_s, []).append(inter)
        widest = max(by_spin, key=lambda s: len(by_spin[s]))
        for two_s in sorted(by_spin):
            for two_m in range(two_s % 2, two_s + 1, 2):
                for target_name, build in (("bal", balanced), ("seq", sequential)):
                    label = label_text(draw.rng.choice(by_spin[two_s]), two_m)
                    ops.append({
                        "group": f"recouple{n}-{target_name}",
                        "argv": ["recouple", spec(source), _fresh_tree(draw, build, n),
                                 "--label", label],
                        "check": {"kind": "recouple"},
                        # Sequential targets cost most: their subtrees are deepest.
                        "largest": (n == 9 and two_s == widest and two_m == two_s % 2
                                    and target_name == "seq"),
                    })
    tree = sequential(_permuted(draw.rng, 10))
    labels = [(inter, two_m) for two_s, inter in _assignments(tree)
              for two_m in range(-two_s, two_s + 1, 2)]
    for index, (inter, two_m) in enumerate(draw.rng.sample(labels, 20)):
        fmt = ("text", "json")[index % 2]
        ops.append({
            "group": "expand10",
            "argv": ["expand", spec(tree), "--label", label_text(inter, two_m),
                     "--format", fmt],
            "check": {"kind": "expand", "n": 10, "format": fmt},
            "largest": False,
        })
    return ops
