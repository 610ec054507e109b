"""The benchmark's workloads and the checks made on every output.

Each item is one real ``taupoly`` command line, run in-process through
``taupoly.cli.main(["--format", "json", *item.split()])``.  Every item is
fixed by the paper's grids; the seed only permutes the order in which the
items of a workload are issued.

Expected values live in ``expected.json`` beside this file, keyed by the
item string.  They were frozen from the seed commit: the table grids are
copies of ``taupoly.tables.TABLES`` (the published grids), the ``poly``
coefficient lists are the published rows of tables 5 and 6 from the
constant term up, the oracle coefficient lists are the engine's outputs
for the same diagrams, and the check counts are the number of named
checks each verify suite emits.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Why each workload exists is in README.md; in short, each isolates one
# layer that a queued change replaces, and is the "layer absent" control
# for the others.
WORKLOADS: dict[str, tuple[str, ...]] = {
    # Eulerian weight-orbit traversal (E6, E7) dominates; no Narayana code.
    "ppa-tables": ("table 1", "table 2", "table 3"),
    # Whole-group Narayana oracle dominates; no Eulerian orbit.  Rows D9
    # and E8 of tables 5 and 6 are left out because they cost ~150 s and
    # ~50 s cold; they run the same code path and stay covered by tier-1.
    "path-tables": ("table 4",)
    + tuple(
        f"poly --family path --diagram {d} --kind d"
        for d in ("D4", "D5", "D6", "D7", "D8", "E6", "E7")
    ),
    # Pure-Python cross-validation routes.  Order 12 is the highest genfun
    # order that runs: orders 13 and 14 are accepted by the parser but
    # fail with RankOutOfRange (a known defect, see README.md).
    "oracle-sweep": (
        "verify --suite oracles --max-rank 7",
        "verify --suite genfun --order 12",
        "verify --suite examples",
        "eulerian A8 --oracle",
        "eulerian D7 --oracle",
        "eulerian A3xA4 --oracle",
        "narayana A6 --oracle",
        "narayana D5 --oracle",
        "narayana A2xA3 --oracle",
    ),
}

# Which published table holds the row of a `poly --family path` item.
_PATH_POLY_TABLE = {"D": 5, "E": 6}


def ordered_items(workload: str, seed: int) -> list[str]:
    """The workload's items in the order the seed picks."""
    items = list(WORKLOADS[workload])
    random.Random(seed).shuffle(items)
    return items


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def check_item(
    item: str, exit_code: int | None, stdout: str, expected: dict, golden_table
) -> list[tuple[str, bool]]:
    """Named pass/fail checks on one item's output.

    ``exit_code`` is None when the item raised.  ``golden_table`` is
    ``taupoly.formulas.golden_table``; the frozen grids in ``expected``
    must agree with it as well as with the output.
    """
    checks = [(f"{item}: exit 0", exit_code == 0)]
    if exit_code is None:
        return checks
    try:
        report = json.loads(stdout)
        results = report["results"]
    except (ValueError, KeyError, TypeError):
        return checks + [(f"{item}: JSON report", False)]
    want = expected[item]
    words = item.split()
    if words[0] == "table":
        k = int(words[1])
        grid = {n: _ints(row) for n, row in want["rows"].items()}
        golden = {str(n): list(row) for n, row in golden_table(k).items()}
        checks.append((f"{item}: golden_table agrees", all(golden.get(n) == r for n, r in grid.items())))
        got = results.get("rows", {})
        checks.append((f"{item}: row set", sorted(got) == sorted(grid)))
        for n, row in grid.items():
            checks.append((f"{item}: row {n}", _ints(got.get(n, [])) == row))
    elif words[0] == "verify":
        entries = report.get("checks", [])
        checks.append((f"{item}: check count", len(entries) == want["checks"]))
        checks.extend((f"{item}: {c['name']}", c["pass"] is True) for c in entries)
    else:
        coeffs = _ints(results.get("coefficients_ascending", []))
        if words[0] == "poly":
            # a table row lists the coefficients from the highest degree down
            diagram = words[words.index("--diagram") + 1]
            golden = golden_table(_PATH_POLY_TABLE[diagram[0]]).get(int(diagram[1:]))
            checks.append((f"{item}: golden_table row", golden is not None and list(golden) == coeffs[::-1]))
        checks.append((f"{item}: coefficients", coeffs == want["coefficients"]))
    return checks
