import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import taupoly
from taupoly import oracles, weyl
from taupoly.dynkin import DynkinDiagram, delete_vertex
from taupoly.errors import UsageError
from taupoly.formulas import (
    PATH,
    PREPROJECTIVE,
    aggregate_coefficients,
    aggregate_totals_closed,
    d_polynomial,
    expected_aggregates,
    f_polynomial,
    golden_table,
    h_polynomial,
    orbit_dim_total,
    published_row,
    reproduce_table,
)
from taupoly.polynomials import Polynomial
from taupoly.hereditary import tau_orbit_totals
from taupoly.weyl import coset_count

from reference import closed_d, closed_h


A = lambda n: DynkinDiagram("A", n)
D = lambda n: DynkinDiagram("D", n)
E = lambda n: DynkinDiagram("E", n)


def poly_aggregates(family, diagram):
    return aggregate_coefficients(d_polynomial(family, diagram), diagram.rank)


def test_worked_examples():
    assert d_polynomial(PREPROJECTIVE, A(3)) == Polynomial([120, 120, 24])
    assert d_polynomial(PATH, A(3)) == Polynomial([46, 46, 10])
    assert h_polynomial(PATH, A(3)) == Polynomial([1, 6, 6, 1])
    assert h_polynomial(PREPROJECTIVE, A(3)) == Polynomial([1, 11, 11, 1])
    assert h_polynomial(PREPROJECTIVE, A(1)) == Polynomial([1, 1])
    assert f_polynomial(PREPROJECTIVE, A(3)) == Polynomial([24, 36, 14, 1])
    assert f_polynomial(PATH, A(3)) == Polynomial([14, 21, 9, 1])
    assert f_polynomial(PATH, A(1)) == Polynomial([2, 1])
    assert d_polynomial(PATH, A(1)) == Polynomial([1])


# the largest rank at which the test below stays under ~1.5 s, cold
CLOSED_FORM_RANK = 50


def test_closed_forms_equal_the_engine_at_every_rank():
    # h and d of every A_n and D_n, far past the ranks any oracle reaches
    for family in (PREPROJECTIVE, PATH):
        for letter, low in (("A", 1), ("D", 4)):
            for n in range(low, CLOSED_FORM_RANK + 1):
                diagram = DynkinDiagram(letter, n)
                assert h_polynomial(family, diagram) == closed_h(family, letter, n), diagram
                assert d_polynomial(family, diagram) == closed_d(family, letter, n), diagram


def test_path_d4_row():
    assert d_polynomial(PATH, D(4)) == Polynomial([332, 498, 222, 28])


def test_degree_is_rank_minus_one():
    for family in (PREPROJECTIVE, PATH):
        for dfam, n in (("A", 5), ("D", 5), ("A", 1)):
            assert d_polynomial(family, DynkinDiagram(dfam, n)).degree == n - 1


def test_closed_tables_match_golden():
    for k in (1, 2, 4):
        assert reproduce_table(k) == golden_table(k)


def test_path_e6_row():
    rows = {
        6: tuple(
            d_polynomial(PATH, E(6)).coefficient(5 - j) for j in range(6)
        )
    }
    assert rows[6] == golden_table(6)[6]


def test_e_table_identities_without_enumeration():
    # the weight orbit's per-vertex totals and counts equal the engine's,
    # and re-derive both end columns of the E-family grid through two
    # identities
    for rank in (6, 7, 8):
        diagram = DynkinDiagram("E", rank)
        orbits = [oracles.weight_orbit_total(diagram, ell) for ell in diagram.vertices]
        dims = tuple(total for total, _ in orbits)
        engine = tuple(orbit_dim_total(PREPROJECTIVE, diagram, ell) for ell in diagram.vertices)
        assert engine == dims
        assert [count for _, count in orbits] == [
            coset_count(diagram, ell) for ell in diagram.vertices
        ]
        golden = golden_table(3)[rank]
        assert sum(dims) == golden[0]
        weighted = 0
        for ell in diagram.vertices:
            union = delete_vertex(diagram, ell)
            order = 1
            for comp in union:
                order *= comp.group_order()
            weighted += dims[ell - 1] * order
        assert weighted == golden[rank - 1]


def test_aggregates_worked_examples():
    assert poly_aggregates(PREPROJECTIVE, A(3)) == (24, 120)
    assert poly_aggregates(PATH, A(3)) == (10, 46)
    assert poly_aggregates(PATH, D(4)) == (28, 332)
    assert aggregate_totals_closed(PATH, D(4)) == (28, 332)


def test_closed_aggregates_match_polynomial_route():
    for family, dfam, ranks in (
        (PREPROJECTIVE, "A", range(1, 8)),
        (PATH, "A", range(1, 8)),
        (PREPROJECTIVE, "D", range(4, 8)),
        (PATH, "D", range(4, 7)),
    ):
        for n in ranks:
            diagram = DynkinDiagram(dfam, n)
            assert aggregate_totals_closed(family, diagram) == poly_aggregates(family, diagram)
            expected = expected_aggregates(family, diagram)
            assert expected == aggregate_totals_closed(family, diagram)


def test_expected_aggregates_none_for_e():
    assert expected_aggregates(PATH, E(6)) is None


# every entry that takes a family, by name
FAMILY_ENTRIES = {
    "d_polynomial": d_polynomial,
    "f_polynomial": f_polynomial,
    "h_polynomial": h_polynomial,
    "orbit_dim_total": lambda family, d: orbit_dim_total(family, d, 1),
    "aggregate_totals_closed": aggregate_totals_closed,
    "expected_aggregates": expected_aggregates,
    "published_row": published_row,
    "face_polynomial": weyl.face_polynomial,
    "link_sum": lambda family, d: weyl.link_sum(family, d, lambda ell, cosets: cosets),
}


@pytest.mark.parametrize("name", FAMILY_ENTRIES)
def test_every_entry_refuses_an_unknown_family_before_any_memo_entry(name):
    memo = dict(weyl._FACE_COUNTS)
    with pytest.raises(UsageError, match="^family must be 'preprojective' or 'path'$"):
        FAMILY_ENTRIES[name]("pth", D(5))
    assert weyl._FACE_COUNTS == memo


def test_orbit_dim_totals():
    assert orbit_dim_total(PREPROJECTIVE, DynkinDiagram("A", 4), 2) == 30
    assert orbit_dim_total(PREPROJECTIVE, DynkinDiagram("D", 4), 2) == 120
    assert orbit_dim_total(PREPROJECTIVE, DynkinDiagram("E", 6), 3) == 15120
    assert orbit_dim_total(PATH, DynkinDiagram("A", 4), 2) == 6
    assert orbit_dim_total(PATH, DynkinDiagram("D", 4), 2) == 10
    assert orbit_dim_total(PATH, DynkinDiagram("E", 6), 3) == 42
    # no rank cap: the diagram alone decides
    assert orbit_dim_total(PREPROJECTIVE, DynkinDiagram("A", 20), 1) == 210
    with pytest.raises(UsageError, match="^A4 has no vertex 5$"):
        orbit_dim_total(PATH, DynkinDiagram("A", 4), 5)
    with pytest.raises(UsageError, match="^D5 has no vertex 0$"):
        orbit_dim_total(PREPROJECTIVE, DynkinDiagram("D", 5), 0)
    with pytest.raises(UsageError, match="^family must be 'preprojective' or 'path'$"):
        orbit_dim_total("pth", DynkinDiagram("A", 4), 1)


def test_path_orbit_totals_match_translate_orbits():
    diagrams = (
        [DynkinDiagram("A", n) for n in range(1, 12)]
        + [DynkinDiagram("D", n) for n in range(4, 12)]
        + [DynkinDiagram("E", n) for n in (6, 7, 8)]
    )
    for d in diagrams:
        engine = {ell: orbit_dim_total(PATH, d, ell) for ell in d.vertices}
        assert engine == tau_orbit_totals(d), d


# Run in a fresh interpreter: the engine reproduces every table and h(1),
# and every engine-only command runs, without ever importing an oracle
# module, numpy or fractions.
_ENGINE_ONLY = textwrap.dedent(
    """
    import contextlib, io, sys
    from taupoly import cli
    from taupoly.dynkin import DynkinDiagram
    from taupoly.formulas import PATH, PREPROJECTIVE, golden_table, h_polynomial, reproduce_table

    for k in range(1, 7):
        assert reproduce_table(k) == golden_table(k), k
    for family, ranks in (("A", range(1, 12)), ("D", range(4, 12)), ("E", (6, 7, 8))):
        for n in ranks:
            diagram = DynkinDiagram(family, n)
            assert h_polynomial(PREPROJECTIVE, diagram)(1) == diagram.group_order(), diagram
            assert h_polynomial(PATH, diagram)(1) == diagram.catalan_count(), diagram
    commands = [
        "table 1",
        "--format csv table 6",
        "poly --family ppa --diagram E7 --kind d --verify",
        "poly --family path --diagram D6 --kind f",
        "eulerian A2xE6",
        "narayana D7",
        "poly --family path --diagram D5 --kind d --verify",
        "genfun ord-h-path-A --order 6 --verify",
        "dim-orbit --family ppa --diagram E8",
        "dim-orbit --family path --diagram D6 --vertex -1",
        "dim-orbit --family path --diagram A9",
        "verify --suite tables",
    ]
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(command.split()) == 0, command
    loaded = {"taupoly.oracles", "taupoly.lattice", "taupoly.hereditary", "numpy", "fractions"}
    loaded &= set(sys.modules)
    assert not loaded, sorted(loaded)
    """
)

# The link recursion is a loop: rank 60 needs no deeper Python stack
# than rank 1.
_SHALLOW_STACK = textwrap.dedent(
    """
    import sys
    from taupoly.dynkin import DynkinDiagram
    from taupoly.formulas import PATH, PREPROJECTIVE, h_polynomial

    sys.setrecursionlimit(150)
    a60, d60 = DynkinDiagram("A", 60), DynkinDiagram("D", 60)
    assert h_polynomial(PREPROJECTIVE, a60)(1) == a60.group_order()
    assert h_polynomial(PATH, d60)(1) == d60.catalan_count()
    """
)


def _run_fresh(code):
    src = Path(taupoly.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def test_engine_reproduces_tables_without_oracles():
    _run_fresh(_ENGINE_ONLY)


def test_engine_runs_under_a_shallow_recursion_limit():
    _run_fresh(_SHALLOW_STACK)


def test_catalan_count():
    assert DynkinDiagram("A", 3).catalan_count() == 14
    assert DynkinDiagram("D", 4).catalan_count() == 50
    assert DynkinDiagram("E", 7).catalan_count() == 4160


def test_rank_bounds_and_usage():
    # the engine runs past the ranks of the published tables
    assert h_polynomial(PATH, A(12)) == oracles.narayana_a(12)
    d12 = DynkinDiagram("D", 12)
    assert h_polynomial(PREPROJECTIVE, D(12))(1) == d12.group_order()
    with pytest.raises(UsageError, match="^family must be 'preprojective' or 'path'$"):
        d_polynomial("pth", DynkinDiagram("A", 2))
    with pytest.raises(UsageError, match=r"^table number must be 1\.\.6, got 7$"):
        reproduce_table(7)


def test_e8_h_polynomial_is_gated():
    # E8 is far within the engine's budget; the E8 weight orbit is over
    # the oracle budget, the E8 antichain census is not (test_weyl
    # compares it)
    assert h_polynomial(PATH, E(8))(1) == 25080
    assert h_polynomial(PREPROJECTIVE, E(8))(1) == 696729600
    refusal = "E8 weight orbit visits 696,729,600 elements, over the oracle budget of 10,000,000"
    with pytest.raises(UsageError, match=f"^{refusal}$"):
        oracles.eulerian(DynkinDiagram("E", 8))
