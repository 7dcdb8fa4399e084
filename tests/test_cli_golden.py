"""Golden outputs of the command line: a refactor must keep them byte-identical.

Every case runs in process through `cckit.cli.run` and is compared with the
stdout, stderr and exit code stored in `tests/data/cli_golden.json`.  After
a change that is meant to alter the output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and give the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cckit.cli import run
from cckit.symmetries import SymmetryTarget

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
STRUCTURES = ["acc3", "contact3", "contact5", "cosym3", "singular3"]


def _cases() -> list[list[str]]:
    argvs = []
    for name in STRUCTURES:
        structure = ["-s", f"fixtures/{name}.json"]
        argvs += [[command, *structure] for command in ("classify", "dualize", "verify")]
        argvs.append(["suite", *structure, "--seed", "42"])
    for name in ("acc3", "contact3", "cosym3"):
        for target in SymmetryTarget:
            argvs.append([
                "symmetry", "-s", f"fixtures/{name}.json",
                "-p", "fixtures/hj_x.json", "-t", target.value,
            ])
    return [argv + extra for argv in argvs for extra in ([], ["--json"])]


CASES = _cases()


def invoke(argv: list[str]) -> dict:
    """Run one command line from the repository root and capture what it says."""
    out, err = io.StringIO(), io.StringIO()
    absolute = [str(ROOT / arg) if arg.startswith("fixtures/") else arg for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(absolute)
    root = str(ROOT)
    return {
        "code": code,
        "stdout": out.getvalue().replace(root, "<root>"),
        "stderr": err.getvalue().replace(root, "<root>"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_unchanged(golden, argv):
    assert invoke(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    doc = {" ".join(argv): invoke(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)
