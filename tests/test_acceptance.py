"""End-to-end acceptance checks.

Seven criteria, each printed as one pass/fail line.  Everything is exact:
integer equality against transcribed reference grids, coefficientwise
equality of polynomials and series.
"""

import contextlib
import io
import json
import time
from math import comb, factorial

import pytest

from taupoly import cli, formulas, hereditary, series
from taupoly.dynkin import DynkinDiagram
from taupoly.formulas import PATH, PREPROJECTIVE


def _announce(number: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.1f}s)")


def test_criterion_1_tables_exact():
    start = time.time()
    ok = True
    for k in range(1, 7):
        if formulas.reproduce_table(k) != formulas.golden_table(k):
            ok = False
    elapsed = time.time() - start
    _announce(1, "tables 1-6 reproduced bit-exactly", ok, elapsed)
    assert ok
    assert elapsed < 300, "tables suite exceeded the five-minute budget"
    # spot anchors quoted in the criteria
    assert formulas.golden_table(1)[9][-1] == 299376000
    assert 2087401881600 in formulas.golden_table(3)[8]
    assert 1408216 in formulas.golden_table(6)[8]


def _verify(*argv) -> tuple[bool, list[dict]]:
    """Run ``taupoly verify`` through the CLI; whether it exited 0 with
    every check passing, and its JSON checks."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", "verify", *argv])
    checks = json.loads(out.getvalue())["checks"]
    assert checks
    return code == cli.EXIT_OK and all(c["pass"] for c in checks), checks


def test_criterion_2_worked_examples():
    start = time.time()
    ok, _ = _verify("--suite", "examples")
    _announce(2, "worked rank-3 examples from oracle and engine", ok, time.time() - start)
    assert ok


def test_criterion_3_oracle_equals_formula():
    start = time.time()
    ok, checks = _verify("--suite", "oracles", "--max-rank", "5")
    assert sum(c["name"].startswith("complex-vs-formula-A") for c in checks) == 31
    _announce(3, "enumeration oracles equal the engine", ok, time.time() - start)
    assert ok


def test_criterion_4_translate_orbit_reproduces_e_dims():
    start = time.time()
    ok = True
    for rank in (6, 7, 8):
        diagram = DynkinDiagram("E", rank)
        engine = {ell: formulas.orbit_dim_total(PATH, diagram, ell) for ell in diagram.vertices}
        orbit = hereditary.tau_orbit_totals(diagram)
        if orbit != engine:
            ok = False
    _announce(4, "translate orbits reproduce the 21 E-family dims", ok, time.time() - start)
    assert ok


def test_criterion_5_aggregates():
    start = time.time()
    ok = True
    for n in range(1, 10):
        algebra = PREPROJECTIVE, DynkinDiagram("A", n)
        lead = n * (n + 1) * 2 ** (n - 2) if n >= 2 else 1
        const = factorial(n + 2) * comb(n + 1, 2) // 6
        if formulas.aggregate_totals_closed(*algebra) != (lead, const):
            ok = False
        if formulas.aggregate_coefficients(formulas.d_polynomial(*algebra), n) != (lead, const):
            ok = False
    for n in range(1, 10):
        algebra = PATH, DynkinDiagram("A", n)
        lead = n * (n + 1) * (n + 2) // 6
        const = 4 ** (n + 1) - (n + 2) * (comb(2 * n + 4, n + 2) // (n + 3))
        if formulas.aggregate_totals_closed(*algebra) != (lead, const):
            ok = False
        if formulas.aggregate_coefficients(formulas.d_polynomial(*algebra), n) != (lead, const):
            ok = False
    for n in range(4, 10):
        algebra = PATH, DynkinDiagram("D", n)
        # leading total: sum of the per-vertex projective dimensions,
        # n(n-1)/2 twice plus (n-l)(n+l-1) for the tail (the printed
        # closed form with the shifted index is a known misprint)
        lead = n * (n - 1) * (2 * n - 1) // 3
        const = n * (n - 1) * _catalan(n) + sum(
            (n - ell) * (n + ell - 1) * _catalan(n - ell) * _d_count(ell)
            for ell in range(2, n)
        )
        if formulas.aggregate_totals_closed(*algebra) != (lead, const):
            ok = False
        if formulas.aggregate_coefficients(formulas.d_polynomial(*algebra), n) != (lead, const):
            ok = False
    _announce(5, "aggregate dimension totals match closed forms", ok, time.time() - start)
    assert ok


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _d_count(ell: int) -> int:
    # maximal-object counts with the rank 2 and 3 shapes read as A1xA1, A3
    if ell == 2:
        return _catalan(2) ** 2
    if ell == 3:
        return _catalan(4)
    return DynkinDiagram("D", ell).catalan_count()


def test_criterion_6_generating_function_identities():
    start = time.time()
    reports = series.verify_all_identities(10)
    ok = all(r.passed for r in reports) and len(reports) == 7
    ok = ok and series.verify_ppa_closed_form_variants(12).passed
    _announce(6, "generating-function identities exact to order 10", ok, time.time() - start)
    assert ok


def test_criterion_7_structural_properties():
    start = time.time()
    ok, _ = _verify("--suite", "structural", "--max-rank", "5")
    _announce(7, "palindromicity, purity, product and link identities", ok, time.time() - start)
    assert ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
