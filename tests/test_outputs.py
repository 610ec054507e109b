"""The command-line outputs, held byte for byte.

Each command line below runs in-process through ``cli.main`` with stdout
and stderr captured; the test compares the sha256 of its exit code,
stdout and stderr with the digest recorded in ``outputs.json``.  A
refactor that means to change no output must leave every digest as it
is.  The file is written from a checkout whose outputs are trusted, with

    PYTHONPATH=src python tests/test_outputs.py > tests/outputs.json

Only taupoly's own messages are held: ``--help`` and the messages
argparse writes itself differ between Python versions, so none is
listed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from taupoly import cli

OUTPUTS = Path(__file__).resolve().parent / "outputs.json"

_DIAGRAMS = (
    [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
)

COMMANDS = (
    [f"{fmt}table {k}" for fmt in ("", "--format json ", "--format csv ") for k in range(1, 7)]
    + [
        f"{fmt}poly --family {family} --diagram {d} --kind {kind} --verify"
        for fmt in ("", "--format json ")
        for family in ("ppa", "path")
        for d in _DIAGRAMS
        for kind in "dfh"
    ]
    + [
        f"{fmt}{command} {d}"
        for fmt in ("", "--format json ")
        for command in ("eulerian", "narayana")
        for d in (*_DIAGRAMS, "A3xA4", "D5xE6", "empty")
    ]
    + [
        "eulerian A8 --oracle",
        "eulerian D7 --oracle",
        "eulerian A3xA4 --oracle",
        "narayana A6 --oracle",
        "narayana D5 --oracle",
        "narayana A2xA3 --oracle",
    ]
    + [
        f"{fmt}dim-orbit --family {family} --diagram {d}{oracle}"
        for fmt in ("", "--format json ")
        for family in ("ppa", "path")
        for d in ("A7", "D6", "E6")
        for oracle in ("", " --oracle")
    ]
    + [
        f"genfun {name} --order 12 --verify"
        for name in ("exp-h-ppa-A", "exp-d-ppa-A", "ord-h-path-A", "ord-d-path-A")
    ]
    + [
        "verify --suite all",
        "--format json verify --suite all",
        "verify --suite oracles --max-rank 7",
    ]
    + [
        "poly --family path --diagram A9 --kind d --oracle",
        "poly --family path --diagram A1000 --kind f",
        "poly --family pth --diagram A3 --kind d",
        "verify --suite oracles --max-rank 9",
        "genfun exp-h-ppa-A --order 13",
        "narayana A15 --oracle",
    ]
)


def digest(command: str) -> str:
    """The sha256 of the exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def test_every_output_is_the_recorded_one():
    recorded = json.loads(OUTPUTS.read_text())
    assert list(recorded) == COMMANDS
    changed = [command for command in COMMANDS if digest(command) != recorded[command]]
    assert not changed


if __name__ == "__main__":
    print(json.dumps({command: digest(command) for command in COMMANDS}, indent=1))
