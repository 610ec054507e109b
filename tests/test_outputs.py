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

# every diagram the complex census admits, rank at most 8
_PATH_ORACLE_DIAGRAMS = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
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
    + [
        f"poly --family path --diagram {d} --kind {kind} --oracle --verify"
        for d in _PATH_ORACLE_DIAGRAMS
        for kind in "dfh"
    ]
    + [
        f"poly --family path --diagram {d} --kind d --oracle --verify --orientation {orientation}"
        for d, orientation in (("A4", "110"), ("D4", "101"), ("E6", "01010"))
    ]
    + [
        f"dim-orbit --family {family} --diagram {d} --vertex {ell}{oracle}"
        for family in ("ppa", "path")
        for d, ell in (("A9", 4), ("D7", -1), ("D7", 1), ("D7", 4), ("E7", 4))
        for oracle in ("", " --oracle")
    ]
    + [
        f"genfun {name} --order 12"
        for name in ("exp-h-ppa-A", "exp-d-ppa-A", "ord-h-path-A", "ord-d-path-A")
    ]
    + ["--format csv poly --family ppa --diagram E7 --kind d"]
    + [
        f"verify --suite {suite}"
        for suite in ("tables", "examples", "genfun", "aggregates", "structural")
    ]
    # every refusal taupoly words itself: the oracle and engine budgets,
    # then malformed inputs
    + [f"eulerian {d} --oracle" for d in ("A10", "D9", "E8", "A1700", "A2xA10")]
    + [f"narayana {d} --oracle" for d in ("D14", "A2xA15")]
    + [
        f"dim-orbit --diagram {d} --vertex {ell} --oracle"
        for d, ell in (("A30", 15), ("D30", 1), ("D30", 12))
    ]
    + [
        "dim-orbit --diagram A1000 --oracle",
        "dim-orbit --family path --diagram A272 --oracle",
        "poly --family ppa --diagram D201 --kind d",
        "dim-orbit --diagram A5 --vertex 0",
        "dim-orbit --family path --diagram E6 --vertex 7 --oracle",
        "poly --family path --diagram A4 --kind d --oracle --orientation 11",
        "poly --family path --diagram D4 --kind d --oracle --orientation 1a1",
        "poly --family path --diagram A4 --kind d --orientation 110",
        "poly --family ppa --diagram A3 --kind d --oracle",
        "poly --family ppa --diagram E9 --kind d",
        "genfun exp-h-pp-A",
        "genfun exp-h-ppa-A --order 0 --verify",
        "genfun exp-h-ppa-A --order -1",
        "verify --suite genfun --order 0",
        "verify --suite genfun --order 13",
        "verify --suite structural --max-rank 0",
        "--format csv eulerian A3",
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
