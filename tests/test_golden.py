"""Golden outputs of the command line, compared against recorded stdout.

Each case runs ``multiplets.cli.main(argv)`` and checks the exit code and
stdout against ``tests/golden/``. Table and expansion output is compared
byte for byte. Reports that carry floats (verify, measure, recouple) are
compared as parsed JSON: floats within 1e-12, key order and every other
value exact. Every JSON output, of any command, must also be the bytes
that ``json.dumps(..., indent=2)`` writes for its own parsed value.

The goldens are a fixed reference for refactors that must not change
output. Record them only from a known-good commit, with
``PYTHONPATH=src python tests/test_golden.py``; never re-record them to
make a change pass.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from multiplets.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"

TREES = {
    "pair": "(1 2)",
    "triple": "((1 2) 3)",
    "triple_rot": "((2 3) 1)",
    "pair_pair": "((1 2) (3 4))",
    "seq4": "(((1 2) 3) 4)",
    "mixed4": "((1 (2 3)) 4)",
}
EXPAND_LABELS = {
    "pair_s0": ("(1 2)", "0,0"),
    "triple_w": ("((1 2) 3)", "1,3/2,1/2"),
    "pair_pair_dicke": ("((1 2) (3 4))", "1,1,2,0"),
    "seq4_s1": ("(((1 2) 3) 4)", "1,3/2,1,0"),
    "mixed4_s1": ("((1 (2 3)) 4)", "1,1/2,1,-1"),
}
NAMED = ("singlet", "triplet0", "ghz3", "w3", "w4", "dicke42", "w4bar", "ghz4", "seq_s1m0")
FORMATS = ("text", "json", "latex")


def _cases() -> dict[str, tuple[list[str], str]]:
    """Case name -> (argv, comparison mode)."""
    cases: dict[str, tuple[list[str], str]] = {}
    for key, spec in TREES.items():
        for fmt in FORMATS:
            cases[f"table_{key}_{fmt}"] = (["table", spec, "--format", fmt], "bytes")
        cases[f"verify_{key}"] = (["verify", spec], "json")
    for key, (spec, label) in EXPAND_LABELS.items():
        for fmt in FORMATS:
            argv = ["expand", spec, "--label", label, "--format", fmt]
            cases[f"expand_{key}_{fmt}"] = (argv, "bytes")
    cases["recouple_triple"] = (
        ["recouple", "((1 2) 3)", "((2 3) 1)", "--label", "0,1/2,1/2"], "json")
    for name in NAMED:
        cases[f"measure_{name}"] = (["measure", name], "json")
        cases[f"measure_{name}_z"] = (["measure", name, "--z-branches"], "json")
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _assert_json_matches(got, want, path: str = "$") -> None:
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            _assert_json_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for index, (g, w) in enumerate(zip(got, want)):
            _assert_json_matches(g, w, f"{path}[{index}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=0, abs=1e-12), path
    else:
        assert got == want, path


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_golden(name):
    argv, mode = _cases()[name]
    recorded = _manifest()[name]
    assert recorded["argv"] == argv
    code, stdout = _run(argv)
    assert code == recorded["exit"]
    want = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    if mode == "bytes":
        assert stdout == want
    else:
        _assert_json_matches(json.loads(stdout), json.loads(want))
    if mode == "json" or argv[-2:] == ["--format", "json"]:
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, (argv, _) in sorted(_cases().items()):
        code, stdout = _run(argv)
        (GOLDEN_DIR / f"{name}.out").write_text(stdout, encoding="utf-8")
        manifest[name] = {"argv": argv, "exit": code}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(manifest)} cases in {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    _record()
