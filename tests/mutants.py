"""Mutation checks: each entry breaks the code in one known way, and the
tests it names must notice.

    python tests/mutants.py

Each entry is ``(file, old text, new text, test ids)``, the file relative
to the repository root.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and runs every named test
there once, unchanged; all must pass.  Then, one entry at a time, it
replaces the old text, which must occur exactly once in its file, runs
the entry's tests in a fresh interpreter and puts the file back.  Every
named id must fail (for a parametrized test, at least one of its cases),
or the run must pass its time limit.  A stale entry, whose old text is
not found exactly once, fails the script; it is not skipped.  So does a
mutant that some named id survives.  The exit status is 0 only when
every entry is caught.

Pytest does not collect this file, and it is not part of the tier-1
run: each entry starts its own interpreter, and the whole list takes
about a minute.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# per run of the tests of one entry; a hang past it counts as caught
TIME_LIMIT_S = 120
# address space per run, so a mutant that blows up a census fails fast
MEMORY_LIMIT = 2 << 30

ENTRIES = [
    # the engine
    (
        "src/taupoly/dynkin.py",
        "return 2 * whole - sum(m * (whole // (m + 1)) for m in arms)",
        "return 2 * whole - sum(m * (whole // (m + 1)) for m in arms) + 1",
        [
            "tests/test_dynkin.py::test_cartan_determinant_from_the_arms_is_the_determinant",
            "tests/test_formulas.py::test_closed_forms_equal_the_engine_at_every_rank",
        ],
    ),
    (
        "src/taupoly/weyl.py",
        "if family not in (PREPROJECTIVE, PATH):",
        "if False:",
        [
            "tests/test_formulas.py::"
            "test_every_entry_refuses_an_unknown_family_before_any_memo_entry"
        ],
    ),
    (
        "src/taupoly/formulas.py",
        "(cosets or weyl.coset_count(d, ell)) if family == PREPROJECTIVE else 2",
        "2 if family == PREPROJECTIVE else (cosets or weyl.coset_count(d, ell))",
        [
            "tests/test_formulas.py::test_worked_examples",
            "tests/test_formulas.py::test_orbit_dim_totals",
        ],
    ),
    # the one link sum: without its weight, f and d are both wrong
    (
        "src/taupoly/weyl.py",
        "total[k] += w * count",
        "total[k] += count",
        [
            "tests/test_formulas.py::test_worked_examples",
            "tests/test_doctests.py::test_every_docstring_example_passes",
        ],
    ),
    (
        "src/taupoly/formulas.py",
        "return Polynomial(dims[::-1])",
        "return Polynomial(dims)",
        ["tests/test_formulas.py::test_worked_examples"],
    ),
    (
        "src/taupoly/polynomials.py",
        "for i in range(len(out) - 1, 0, -1):",
        "for i in range(len(out) - 1, 1, -1):",
        ["tests/test_polynomials.py::test_shift_of_degree_up_to_24_is_evaluation_at_25_points"],
    ),
    # the closed forms the engine is held to at every rank
    (
        "tests/reference.py",
        "2 * [(n * (n - 1) // 2, 2 ** (n - 1), [(\"A\", n - 1)])]",
        "2 * [(n * (n + 1) // 2, 2 ** (n - 1), [(\"A\", n - 1)])]",
        ["tests/test_formulas.py::test_closed_forms_equal_the_engine_at_every_rank"],
    ),
    (
        "tests/reference.py",
        "(2 * i * (n - i) + i * (i - 1), 2**i",
        "(2 * (n - 1 - i) * (i + 1) + (n - 1 - i) * (n - 2 - i), 2**i",
        ["tests/test_formulas.py::test_closed_forms_equal_the_engine_at_every_rank"],
    ),
    # the descent enumerations
    (
        "src/taupoly/oracles.py",
        "return (words[:-1] > words[1:]).sum(axis=0, dtype=np.uint8)",
        "return (words[:-2] > words[1:-1]).sum(axis=0, dtype=np.uint8)",
        ["tests/test_weyl.py::test_row_descent_counts_match_the_tuple_definitions"],
    ),
    (
        "src/taupoly/oracles.py",
        "return descent_counts(words) + (words[0] < -words[1])",
        "return descent_counts(words)",
        ["tests/test_weyl.py::test_row_descent_counts_match_the_tuple_definitions"],
    ),
    # the clique census
    (
        "src/taupoly/oracles.py",
        "ahead = mask[lo : lo + rows_per_chunk] & later[last[lo : lo + rows_per_chunk]]",
        "ahead = mask[lo : lo + rows_per_chunk]",
        [
            "tests/test_hereditary.py::test_clique_census_matches_a_set_listing",
            "tests/test_hereditary.py::test_antichain_census_is_the_same_in_any_chunk_size",
        ],
    ),
    (
        "src/taupoly/oracles.py",
        "            parent += lo\n",
        "",
        [
            "tests/test_hereditary.py::test_clique_census_matches_a_set_listing",
            "tests/test_hereditary.py::test_antichain_census_is_the_same_in_any_chunk_size",
        ],
    ),
    # the compatibility complex and its face-count memo
    (
        "src/taupoly/hereditary.py",
        "min(compatible[p][:, p].tobytes() for p in relabellings.values())",
        "None",
        ["tests/test_hereditary.py::test_each_graph_is_counted_once"],
    ),
    (
        "src/taupoly/hereditary.py",
        "min(compatible[p][:, p].tobytes() for p in relabellings.values())",
        "compatible.tobytes()",
        ["tests/test_hereditary.py::test_each_graph_is_counted_once"],
    ),
    (
        "src/taupoly/hereditary.py",
        "[len(roots) + s.index(v) for v in range(n)]",
        "[len(roots) + s[v] for v in range(n)]",
        ["tests/test_hereditary.py::test_a_diagram_symmetry_relabels_the_graph[D4]"],
    ),
    (
        "src/taupoly/hereditary.py",
        "paths, power = np.eye(q.rank, dtype=np.int64), q.arrow_counts\n",
        "paths, power = np.eye(q.rank, dtype=np.int64), q.arrow_counts.T\n",
        ["tests/test_hereditary.py::test_path_cartan_matches_reachability"],
    ),
    (
        "src/taupoly/hereditary.py",
        "    while power.any():\n        paths = paths + power @ paths",
        "    while (power @ power).any():\n        paths = paths + power @ paths",
        ["tests/test_hereditary.py::test_path_cartan_matches_reachability"],
    ),
    (
        "src/taupoly/hereditary.py",
        "        power = power @ power\n",
        "        power = power @ q.arrow_counts\n",
        ["tests/test_hereditary.py::test_path_cartan_matches_reachability"],
    ),
    # the lattice models
    (
        "src/taupoly/lattice.py",
        "np.arange(n - 1, 0, -1)",
        "np.arange(n, 1, -1)",
        ["tests/test_lattice.py::test_corner_oracle"],
    ),
    (
        "src/taupoly/lattice.py",
        "count += block.shape[1]",
        "count += block.shape[0]",
        [
            "tests/test_acceptance.py::test_criterion_3_oracle_equals_formula",
            "tests/test_cli.py::test_verify_oracles_at_max_rank_3",
        ],
    ),
    # the packed series product
    (
        "src/taupoly/series.py",
        "if self.exponential else 1)).bit_length() + 2",
        "if self.exponential else 1)).bit_length() - 1",
        ["tests/test_series.py::test_integer_series_match_fraction_reference"],
    ),
    (
        "src/taupoly/series.py",
        "if self.exponential else 1)).bit_length() + 2",
        "if self.exponential else 1)).bit_length() + 0",
        ["tests/test_series.py::test_integer_series_match_fraction_reference"],
    ),
    (
        "src/taupoly/series.py",
        "(bound * (comb(order, order // 2) if self.exponential else 1)).bit_length()",
        "bound.bit_length()",
        ["tests/test_series.py::test_integer_series_match_fraction_reference"],
    ),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _failed_ids(workdir: Path, ids: list[str]) -> set[str] | None:
    """The named ids with a failing case, or None if the run timed out."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "OPENBLAS_NUM_THREADS": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(
            command + ids,
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return None
    failing = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return {i for i in ids if any(f == i or f.startswith(i + "[") for f in failing)}


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        all_ids = sorted({i for *_, ids in ENTRIES for i in ids})
        start = time.perf_counter()
        failing = _failed_ids(workdir, all_ids)
        if failing is None or failing:
            print(f"clean copy: {sorted(failing or ['timed out'])} do not pass")
            return 1
        print(f"clean copy: {len(all_ids)} tests pass ({time.perf_counter() - start:.1f} s)")
        for number, (name, old, new, ids) in enumerate(ENTRIES, 1):
            path = workdir / name
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                problems.append(number)
                print(f"{number:2} STALE {name}: the old text occurs {found} times: {old!r}")
                continue
            start = time.perf_counter()
            path.write_text(text.replace(old, new))
            try:
                failing = _failed_ids(workdir, ids)
            finally:
                path.write_text(text)
            took = f"{time.perf_counter() - start:.1f} s"
            survived = [] if failing is None else [i for i in ids if i not in failing]
            if survived:
                problems.append(number)
                print(f"{number:2} SURVIVED {name} {new!r}: {survived} still pass ({took})")
            else:
                how = "timed out" if failing is None else f"{len(ids)} failing"
                print(f"{number:2} caught   {name}: {how} ({took})")
    print(f"{len(ENTRIES) - len(problems)} of {len(ENTRIES)} mutants caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
