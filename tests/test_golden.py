"""Golden outputs: fixed CLI commands must keep their stdout and exit code.

Each command in ``tests/golden/commands.json`` runs through ``cli.main``;
its stdout must equal ``tests/golden/<name>.out`` byte for byte and its exit
code must equal the recorded one.  The fixtures are the "same behaviour"
gate for refactors: a change that alters any of them changes behaviour.

Regenerate (only when a behaviour change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from nichols_dm.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("case", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_golden_output(case):
    code, stdout = run(case["argv"])
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert stdout == expected
    assert code == case["exit"]


def regenerate():
    for case in COMMANDS:
        code, stdout = run(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_text(stdout, encoding="utf-8")
        case["exit"] = code
    lines = ",\n".join("  " + json.dumps(case) for case in COMMANDS)
    (GOLDEN / "commands.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    regenerate()
