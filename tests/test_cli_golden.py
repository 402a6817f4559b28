"""Golden documents of the CLI subcommands.

Each case runs ``conesep.cli.main`` on one instance file and pins its exit
code and JSON document.  Keys, strings, bools, ints and nulls must match
exactly; floats must match to 1e-12 absolute, so last-bit noise from the
linear algebra passes but a renamed field or a ``true`` printed as ``1``
does not.  The inputs are ``MIXED`` (one region of each kind) and a nested
pair of 2-D sectors with a ray outside both.

To re-record after an intended output change:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from conesep.cli import main
from test_instances import MIXED

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "cli_golden.json"
FLOAT_ABS = 1e-12

NESTED = {
    "dim": 2,
    "cones": {
        "W": {"pieces": [{"generators": [[-1, 2], [1, 2]]}]},
        "Q": {"pieces": [{"generators": [[-1, 1], [1, 1]]}]},
        "R": {"pieces": [{"generators": [[1, -1]]}]},
    },
    "options": {"seed": 5, "verify_samples": 200},
}

FILES = {"mixed.json": MIXED, "nested.json": json.dumps(NESTED)}

CASES = {
    "separate-nonsym-mixed": ["separate", "mixed.json", "--pair", "C,K"],
    "separate-nonsym-nested": ["separate", "nested.json", "--pair", "W,R"],
    "separate-sym-mixed": ["separate", "mixed.json", "--mode", "sym",
                           "--pair", "C,B"],
    "separate-sym-nested": ["separate", "nested.json", "--mode", "sym",
                            "--pair", "R,W"],
    "separate-bidir-nested": ["separate", "nested.json", "--mode", "bidir",
                              "--pair", "W,R"],
    "separate-bidir-mixed": ["separate", "mixed.json", "--mode", "bidir",
                             "--pair", "C,K"],
    "base-piece": ["base", "mixed.json", "--cone", "C"],
    "base-union": ["base", "mixed.json", "--cone", "K"],
    "base-complement": ["base", "mixed.json", "--cone", "H"],
    "base-boundary": ["base", "mixed.json", "--cone", "B"],
    "interpolate-nested": ["interpolate", "nested.json", "--inner", "W",
                           "--outer", "Q"],
    "interpolate-touching": ["interpolate", "nested.json", "--inner", "Q",
                             "--outer", "Q"],
    "check-mixed": ["check", "mixed.json", "--pair", "C,K"],
    "check-nested": ["check", "nested.json", "--pair", "W,R"],
    "oracle-mixed": ["oracle", "mixed.json", "--pair", "C,K"],
    "oracle-nested": ["oracle", "nested.json", "--pair", "W,R",
                      "--resolution", "1.0"],
    "batch": ["separate", "mixed.json", "nested.json", "--pair", "C,K"],
}


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    # one indented document for a single file, one line per file otherwise
    batch = sum(arg.endswith(".json") for arg in argv) > 1
    docs = [json.loads(line) for line in text.splitlines()] if batch else [
        json.loads(text)]
    return {"code": code, "docs": docs}


def _record(workdir) -> dict:
    for name, text in FILES.items():
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    return {case: _run(argv) for case, argv in CASES.items()}


def _same(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} vs golden {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_ABS, f"{where}: {got!r} vs golden {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs golden {want!r}"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli_golden")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return _record(workdir)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_document_matches_golden(recorded, golden, case):
    _same(recorded[case], golden[case], case)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            golden = _record(tmp)
        finally:
            os.chdir(here)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
