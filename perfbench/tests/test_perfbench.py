"""Self-tests of the benchmark: tracer arithmetic, entry-point binding,
the correctness gate, exact counts and the refusal to run without source.

    python3 -m pytest -q perfbench/tests

The count and gate tests start real workers; the whole file takes about
a minute on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS, check_item, load_expected  # noqa: E402


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
    ]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_wrap_records_parents_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda counts, args, result: counts.update(seen=args[0]))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 1, "seen": 3}


def test_install_rebinds_every_binding_of_an_entry_point():
    def entry():
        return 7

    first = types.ModuleType("taupoly._perfbench_selftest_a")
    second = types.ModuleType("taupoly._perfbench_selftest_b")
    first.entry = entry
    second.alias = entry  # as `from .a import entry as alias` would bind it
    sys.modules[first.__name__] = first
    sys.modules[second.__name__] = second
    try:
        tracer = Tracer()
        missing = install(tracer, (
            ("a.entry", first.__name__, ("entry", "gone"), None),
        ))
        assert missing == [f"{first.__name__}.gone"]
        assert first.entry() == second.alias() == 7
        assert tracer.counts["a.entry.calls"] == 2
    finally:
        del sys.modules[first.__name__], sys.modules[second.__name__]


def _golden(expected):
    def golden_table(k):
        return {int(n): tuple(row) for n, row in expected[f"table {k}"]["rows"].items()}

    return golden_table


def _table_output(rows) -> str:
    return json.dumps({"results": {"rows": {n: [str(v) for v in row] for n, row in rows.items()}}})


def test_check_item_passes_the_frozen_grid_and_fails_a_wrong_row():
    expected = load_expected()
    rows = dict(expected["table 1"]["rows"])
    golden = _golden(expected)
    assert all(ok for _, ok in check_item("table 1", 0, _table_output(rows), expected, golden))
    rows["3"] = [24, 120, 121]
    failed = [name for name, ok in check_item("table 1", 0, _table_output(rows), expected, golden) if not ok]
    assert failed == ["table 1: row 3"]


def test_check_item_fails_exceptions_exit_codes_and_dropped_checks():
    expected = load_expected()
    golden = _golden(expected)
    assert not all(ok for _, ok in check_item("table 1", None, "Traceback", expected, golden))
    assert not all(ok for _, ok in check_item("table 1", 1, "{}", expected, golden))
    item = "verify --suite examples"
    entries = [{"name": f"c{i}", "pass": True} for i in range(expected[item]["checks"])]
    assert all(ok for _, ok in check_item(item, 0, json.dumps({"results": {}, "checks": entries}), expected, golden))
    entries[0]["pass"] = False
    assert not all(ok for _, ok in check_item(item, 1, json.dumps({"results": {}, "checks": entries}), expected, golden))
    short = json.dumps({"results": {}, "checks": entries[1:]})
    assert not all(ok for _, ok in check_item(item, 0, short, expected, golden))


def test_check_item_compares_the_whole_path_polynomial():
    expected = load_expected()
    item = "poly --family path --diagram D5 --kind d"
    coeffs = expected[item]["coefficients"]

    def golden_table(k):
        return {5: tuple(reversed(coeffs))} if k == 5 else {}

    def failed(got):
        output = json.dumps({"results": {"coefficients_ascending": [str(c) for c in got]}})
        return [name for name, ok in check_item(item, 0, output, expected, golden_table) if not ok]

    assert failed(coeffs) == []
    assert failed(coeffs[:-1] + [coeffs[-1] + 1]) == [f"{item}: golden_table row", f"{item}: coefficients"]
    assert failed(coeffs + [1]) == [f"{item}: golden_table row", f"{item}: coefficients"]


@pytest.mark.parametrize("wall, expected", [([6.2, 5.1], 5.1), ([6.2, 5.1, 7.9], 6.2)])
def test_summarise_reports_one_of_the_samples(wall, expected):
    samples = {"wall_s": wall, "setup_s": [0.3, 0.2, 0.25, 0.4], "peak_rss_mb": [100.0] * len(wall)}
    assert run.summarise(samples) == {"wall_s": expected, "setup_s": 0.25, "peak_rss_mb": 100.0}


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    items = {item for items in WORKLOADS.values() for item in items}
    assert items == set(load_expected())


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["checks"]["failed"] == 0, report["checks"]["failures"]
    return report["trace"]["counts"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly_across_runs_and_seeds(workload):
    first = _traced_counts(workload, 1)
    assert first
    assert _traced_counts(workload, 1) == first
    assert _traced_counts(workload, 2) == first


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))


def _run(cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ppa-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_grid_row_that_differs_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    expected_path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    expected["table 1"]["rows"]["2"][1] += 1
    expected_path.write_text(json.dumps(expected), encoding="utf-8")
    proc = _run(tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
