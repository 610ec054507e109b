import json
import os
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from taupoly import formulas, hereditary, lattice, oracles, weyl
from taupoly.dynkin import DynkinDiagram
from taupoly.errors import ConsistencyError

from taupoly import cli

from reference import polynomial_from_decimal_strings


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_poly_path_a3(capsys):
    code, payload = run_json(capsys, "poly", "--family", "path", "--diagram", "A3", "--kind", "d")
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == ["46", "46", "10"]
    assert payload["exit_status"] == 0


def test_poly_trivial(capsys):
    code, payload = run_json(capsys, "poly", "--family", "path", "--diagram", "A1", "--kind", "d")
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == ["1"]


def test_poly_ppa_d4(capsys):
    code, payload = run_json(
        capsys, "poly", "--family", "preprojective", "--diagram", "D4", "--kind", "d"
    )
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == ["2688", "4032", "1728", "192"]


def test_poly_verify_checks(capsys):
    code, payload = run_json(
        capsys, "poly", "--family", "path", "--diagram", "A3", "--kind", "d", "--verify"
    )
    assert code == 0
    names = {c["name"] for c in payload["checks"]}
    assert "shifted-palindromic" in names
    assert "table-4-row-3" in names
    assert all(c["pass"] for c in payload["checks"])


@pytest.mark.parametrize(
    "family,diagram", [("path", "A3"), ("preprojective", "D4"), ("path", "E6")]
)
def test_poly_f_verify_checks_the_shifted_palindrome(capsys, family, diagram):
    code, payload = run_json(
        capsys, "poly", "--family", family, "--diagram", diagram, "--kind", "f", "--verify"
    )
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == ["shifted-palindromic"]
    assert all(c["pass"] for c in payload["checks"])


def test_poly_round_trips_through_decimal_strings(capsys):
    _, payload = run_json(
        capsys, "poly", "--family", "preprojective", "--diagram", "A5", "--kind", "d"
    )
    strings = payload["results"]["coefficients_ascending"]
    poly = polynomial_from_decimal_strings(strings)
    assert poly.to_decimal_strings() == strings


def test_usage_errors_exit_2(capsys):
    assert cli.main(["poly", "--family", "path", "--diagram", "X9", "--kind", "d"]) == 2
    assert cli.main(["poly", "--family", "nope", "--diagram", "A3", "--kind", "d"]) == 2
    assert cli.main(["genfun", "nope"]) == 2
    assert cli.main(["genfun", "exp-h-ppa-A", "--order", "20"]) == 2
    capsys.readouterr()


def test_poly_csv_prints_the_coefficients_alone(capsys):
    argv = ["--format", "csv", "poly", "--family", "path", "--diagram", "A3", "--kind", "d"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == "46,46,10\n"


def test_poly_h_verify_checks_the_palindrome(capsys):
    argv = ["poly", "--family", "preprojective", "--diagram", "D5", "--kind", "h", "--verify"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["checks"] == [
        {"name": "palindromic", "expected": "pass", "actual": "pass", "pass": True}
    ]


def test_aggregates_command(capsys):
    # the aggregates are the end coefficients of the d-polynomial, checked
    # against their closed form by poly --kind d --verify
    argv = ["poly", "--family", "ppa", "--diagram", "D5", "--kind", "d", "--verify"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    expected = formulas.expected_aggregates(formulas.PREPROJECTIVE, DynkinDiagram("D", 5))
    coefficients = payload["results"]["coefficients_ascending"]
    assert (coefficients[-1], coefficients[0]) == tuple(map(str, expected))
    assert payload["checks"][-1] == {
        "name": "aggregates",
        "expected": list(map(str, expected)),
        "actual": list(map(str, expected)),
        "pass": True,
    }
    # type E has no closed form, so no aggregates check
    argv = ["poly", "--family", "path", "--diagram", "E6", "--kind", "d", "--verify"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert "aggregates" not in [c["name"] for c in payload["checks"]]


def test_plain_format_renders_results_and_checks(capsys):
    code, out = run(capsys, "poly", "--family", "path", "--diagram", "A3", "--kind", "d")
    assert code == 0
    assert out == "polynomial: 10t^2 + 46t + 46\ncoefficients_ascending: [46, 46, 10]\n"
    code, out = run(capsys, "dim-orbit", "--diagram", "A3")
    assert code == 0
    assert out == "totals: {1: 6, 2: 12, 3: 6}\n"
    argv = ["poly", "--family", "path", "--diagram", "A3", "--kind", "d", "--verify"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[2:] == [
        "[PASS] shifted-palindromic",
        "[PASS] shifted-unimodal",
        "[PASS] table-4-row-3",
        "[PASS] aggregates",
    ]


def test_plain_format_renders_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "expected_aggregates", lambda family, d: (10, 45))
    argv = ["poly", "--family", "path", "--diagram", "A3", "--kind", "d", "--verify"]
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_CHECK_FAILED == 1
    assert out.splitlines()[-1] == "[FAIL] aggregates (expected ['10', '45'], got ['10', '46'])"


def test_parser_errors_exit_2(capsys):
    assert cli.main(["table", "7"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "usage error: argument number: invalid choice: 7 (choose from 1, 2, 3, 4, 5, 6)\n"
    )
    assert captured.out == ""


def test_oracle_over_budget_exits_2(capsys):
    # the E8 antichain census is within the budget and matches the engine
    code, payload = run_json(capsys, "narayana", "E8", "--oracle")
    assert code == 0
    coeffs = payload["results"]["coefficients_ascending"]
    engine = formulas.h_polynomial(formulas.PATH, DynkinDiagram("E", 8))
    assert coeffs == engine.to_decimal_strings()
    assert sum(map(int, coeffs)) == 25080
    assert cli.main(["eulerian", "E8", "--oracle"]) == cli.EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert "E8 weight orbit visits 696,729,600 elements" in captured.err
    assert captured.out == ""


def test_poly_e8_h_needs_no_gate(capsys):
    for family, total in (("path", 25080), ("preprojective", 696729600)):
        code, payload = run_json(
            capsys, "poly", "--family", family, "--diagram", "E8", "--kind", "h"
        )
        assert code == 0
        assert sum(map(int, payload["results"]["coefficients_ascending"])) == total


def test_poly_path_a12_h_is_narayana(capsys):
    code, payload = run_json(capsys, "poly", "--family", "path", "--diagram", "A12", "--kind", "h")
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == [
        str(c) for c in oracles.narayana_a(12)
    ]


def test_eulerian_union(capsys):
    code, payload = run_json(capsys, "eulerian", "A2xA1xA2")
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == ["1", "9", "26", "26", "9", "1"]


def test_narayana_with_oracle(capsys):
    code, payload = run_json(capsys, "narayana", "A3", "--oracle")
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == ["1", "6", "6", "1"]


def test_dim_orbit(capsys):
    code, payload = run_json(
        capsys, "dim-orbit", "--family", "ppa", "--diagram", "A4"
    )
    assert code == 0
    assert payload["command"] == "dim-orbit --family preprojective --diagram A4"
    assert payload["results"]["totals"] == {"1": "10", "2": "30", "3": "30", "4": "10"}
    # past the enumeration caps: n(n+1)/2 * binom(n-1, n-l) at vertex l of A_n
    code, payload = run_json(capsys, "dim-orbit", "--diagram", "A20")
    assert code == 0
    assert payload["results"]["totals"] == {
        str(ell): str(210 * comb(19, 20 - ell)) for ell in range(1, 21)
    }
    # the engine at one vertex
    code, payload = run_json(capsys, "dim-orbit", "--diagram", "D5", "--vertex", "2")
    assert code == 0
    assert payload["results"] == {"total": "720"}
    code, payload = run_json(
        capsys,
        "dim-orbit", "--family", "ppa", "--diagram", "D4", "--vertex", "-1", "--oracle",
    )
    assert code == 0
    assert payload["results"]["total"] == "24"
    assert payload["results"]["count"] == "8"
    # type E has a brute-force route too: the orbit of w_3 in E6
    code, payload = run_json(
        capsys, "dim-orbit", "--diagram", "E6", "--vertex", "3", "--oracle"
    )
    assert code == 0
    assert payload["results"] == {"total": "15120", "count": "720"}


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_dim_orbit_lists_every_vertex_of_every_type(capsys, oracle):
    for family, dfam, n, totals in (
        ("ppa", "A", 4, {"1": "10", "2": "30", "3": "30", "4": "10"}),
        ("ppa", "D", 5, {"-1": "80", "1": "80", "2": "720", "3": "280", "4": "40"}),
        (
            "ppa", "E", 6,
            {"1": "216", "2": "3240", "3": "15120", "4": "792", "5": "3240", "6": "216"},
        ),
        ("path", "A", 4, {"1": "4", "2": "6", "3": "6", "4": "4"}),
        ("path", "D", 4, {"-1": "6", "1": "6", "2": "10", "3": "6"}),
        ("path", "E", 6, {"1": "16", "2": "30", "3": "42", "4": "22", "5": "30", "6": "16"}),
    ):
        argv = ["dim-orbit", "--family", family, "--diagram", f"{dfam}{n}", *oracle]
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert payload["results"] == {"totals": totals}
        for vertex, total in totals.items():
            code, payload = run_json(capsys, *argv, "--vertex", vertex)
            assert code == 0
            assert payload["results"]["total"] == total
            # no count on the path family: a translate orbit's length
            # depends on the orientation
            assert ("count" in payload["results"]) == (family == "ppa" and bool(oracle))


def test_dim_orbit_oracle_over_every_vertex_is_refused_before_any_work(capsys):
    # 2^1001 - 2 rectangle paths in all, though vertex 1 alone has 1,001:
    # the running total passes the budget at vertex 3
    assert cli.main(["dim-orbit", "--diagram", "A1000", "--oracle"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        f"usage error: A1000 orbit-total oracle over every vertex visits at least"
        f" {1001 + comb(1001, 2) + comb(1001, 3):,} elements,"
        " over the oracle budget of 10,000,000\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, estimate",
    [
        ("eulerian A1700 --oracle", "more than 10^4758"),
        ("narayana A8000 --oracle", "more than 10^4810"),
        ("dim-orbit --diagram A16000 --vertex 8000 --oracle", "more than 10^4814"),
        ("dim-orbit --diagram A20000 --oracle", f"at least {20001 + comb(20001, 2):,}"),
        ("dim-orbit --diagram D5000 --oracle", "more than 10^1504"),
    ],
)
def test_huge_estimates_are_refused_on_one_short_line(capsys, argv, estimate):
    # past 60 digits an estimate is the power of ten it exceeds
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err) <= 250 and captured.err.count("\n") == 1
    assert f" visits {estimate} elements, over the oracle budget" in captured.err


def test_dim_orbit_unknown_type_is_a_usage_error(capsys):
    assert cli.main(["dim-orbit", "--diagram", "B3"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "usage error: cannot parse diagram 'B3'; expected like A5, D6, E7\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        # the aggregates are a check of poly --kind d --verify
        (
            "aggregates --family path --diagram A3",
            "argument command: invalid choice: 'aggregates'",
        ),
        # dim-orbit names its diagram as poly does
        ("dim-orbit --type A --rank 3", "the following arguments are required: --diagram"),
    ],
)
def test_one_way_to_say_each_thing(capsys, argv, message):
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
@pytest.mark.parametrize("dfam, n, vertex", [("D", 4, 0), ("D", 4, 4), ("D", 6, -2), ("A", 4, 5)])
def test_dim_orbit_bad_vertex_names_the_diagram(capsys, dfam, n, vertex, oracle):
    # the oracle route checks the vertex before it picks a lattice model
    argv = ["dim-orbit", "--diagram", f"{dfam}{n}", "--vertex", str(vertex), *oracle]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {dfam}{n} has no vertex {vertex}\n"
    assert captured.out == ""


@pytest.mark.parametrize("diagram, vertex", [("A3", 9), ("D4", 0), ("D4", 4)])
def test_tau_orbit_bad_vertex_names_the_diagram(capsys, diagram, vertex):
    argv = ["dim-orbit", "--family", "path", "--diagram", diagram, "--vertex", str(vertex)]
    assert cli.main([*argv, "--oracle"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {diagram} has no vertex {vertex}\n"
    assert captured.out == ""


def test_oracle_path(capsys):
    # the path family's --oracle route of poly is the complex of the quiver
    argv = ["poly", "--family", "path", "--diagram", "A3", "--kind", "f", "--oracle"]
    code, payload = run_json(capsys, *argv, "--orientation", "10")
    assert code == 0
    assert payload["command"] == "poly --family path --diagram A3 --kind f --oracle --orientation 10"
    assert payload["results"]["coefficients_ascending"] == ["14", "21", "9", "1"]
    assert payload["results"]["maximal_faces"] == "14"
    code, out = run(capsys, "--format", "csv", *argv, "--verify")
    assert code == 0
    assert out == "14,21,9,1\n[PASS] shifted-palindromic\n"


def test_oracle_path_type_e_matches_narayana(capsys):
    argv = ["poly", "--family", "path", "--diagram", "E6", "--kind", "h", "--oracle"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["command"] == "poly --family path --diagram E6 --kind h --oracle"
    assert payload["results"]["maximal_faces"] == "833"
    _, narayana = run_json(capsys, "narayana", "E6")
    assert (
        payload["results"]["coefficients_ascending"]
        == narayana["results"]["coefficients_ascending"]
    )


def test_oracle_path_orientation_errors(capsys):
    for argv, message in (
        ("path D4 --oracle --orientation 11", "orientation for D4 needs 3 characters, each 1"),
        ("path A3 --oracle --orientation 1x", "orientation for A3 needs 2 characters, each 1"),
        # the old alphabet is refused with the new one named
        (
            "path A3 --oracle --orientation=+-",
            "orientation for A3 needs 2 characters,"
            " each 1 (keep the edge's direction) or 0 (flip it)",
        ),
        ("path A3 --orientation 11", "--orientation picks the quiver of the --oracle route"),
        ("path A9 --oracle", "complex enumeration capped at rank 8"),
        ("ppa A3 --oracle", "poly --oracle has no route for the preprojective family"),
    ):
        family, diagram, *options = argv.split()
        argv = ["poly", "--family", family, "--diagram", diagram, "--kind", "d", *options]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_empty_orientation_is_named_nowhere(capsys):
    # A1 has no edges, so its one orientation is the empty default
    argv = ["poly", "--family", "path", "--diagram", "A1", "--kind", "f", "--oracle"]
    assert run_json(capsys, *argv, "--orientation=") == run_json(capsys, *argv)


def test_closed_stdout_ends_quietly():
    src = Path(cli.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-m", "taupoly", "--format", "json", "table", "1"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()  # the reader goes away before the report is written
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")


@pytest.mark.parametrize("diagram", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_every_orientation_reaches_the_oracle(capsys, diagram):
    d = DynkinDiagram(diagram[0], int(diagram[1:]))
    argv = ["poly", "--family", "path", "--diagram", diagram, "--kind", "f", "--oracle"]
    for orientation in hereditary.orientations(d):
        quiver = hereditary.OrientedQuiver.from_diagram(d, orientation)
        expected = hereditary.tau_rigid_complex(quiver).f_polynomial().to_decimal_strings()
        for option in (["--orientation", orientation], [f"--orientation={orientation}"]):
            code, payload = run_json(capsys, *argv, *option)
            assert code == 0, option
            assert payload["results"]["coefficients_ascending"] == expected, option


@pytest.fixture
def fresh_complexes():
    hereditary._FACE_COUNTS.clear()
    yield
    hereditary._FACE_COUNTS.clear()


def test_poly_oracle_route_runs_the_census(capsys, monkeypatch, fresh_complexes):
    # a census that overcounts shows in --oracle and nowhere else
    census = hereditary._clique_census

    def overcounting(*args):
        counts, dim_sums, maximal = census(*args)
        return [c + 1 for c in counts], dim_sums, maximal

    monkeypatch.setattr(hereditary, "_clique_census", overcounting)
    argv = ["poly", "--family", "path", "--diagram", "D4", "--kind", "f"]
    code, payload = run_json(capsys, *argv, "--oracle")
    assert code == 0
    assert payload["results"]["coefficients_ascending"] == ["51", "101", "67", "17", "2"]
    assert payload["results"]["maximal_faces"] == "51"
    code, payload = run_json(capsys, *argv)
    assert payload["results"]["coefficients_ascending"] == ["50", "100", "66", "16", "1"]


def test_oracle_tau_orbit(capsys):
    # the translate orbit is the path family's --oracle route of dim-orbit
    code, payload = run_json(
        capsys, "dim-orbit", "--family", "path", "--diagram", "E6", "--vertex", "3", "--oracle"
    )
    assert code == 0
    assert payload["command"] == "dim-orbit --family path --diagram E6"
    assert payload["results"] == {"total": "42"}
    # --oracle is the only route switch: there is no oracle command
    assert cli.main(["oracle", "tau-orbit", "--type", "E6"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: argument command: invalid choice: 'oracle'")
    assert captured.out == ""


@pytest.mark.parametrize("vertex", [[], ["--vertex", "500"]])
def test_dim_orbit_path_oracle_over_budget_exits_2(capsys, vertex, monkeypatch):
    # 500,500 positive roots of 1,000 entries, refused before any orbit is built
    monkeypatch.setattr(hereditary, "translate_orbits", None)
    argv = ["dim-orbit", "--family", "path", "--diagram", "A1000", *vertex, "--oracle"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "usage error: A1000 translate orbits (500,500 modules of 1000 entries)"
        " visits 500,500,000 elements, over the oracle budget of 10,000,000\n"
    )
    assert captured.out == ""


def _plus_one(module, name):
    """``module.name`` with 1 added to its result, to its first entry, or
    to each of its values."""
    original = getattr(module, name)

    def patched(*args):
        result = original(*args)
        if isinstance(result, dict):
            return {key: value + 1 for key, value in result.items()}
        return result + 1 if isinstance(result, int) else (result[0] + 1, *result[1:])

    return patched


@pytest.mark.parametrize(
    "family, dfam, n, vertex, module, name",
    [
        ("path", "A", 5, 2, hereditary, "tau_orbit_totals"),
        ("path", "D", 5, -1, hereditary, "tau_orbit_totals"),
        ("path", "E", 7, 4, hereditary, "tau_orbit_totals"),
        ("preprojective", "A", 5, 2, lattice, "block_area_rect"),
        ("preprojective", "D", 5, -1, lattice, "block_area_corner"),
        ("preprojective", "D", 5, 3, lattice, "block_sequence_weight"),
        ("preprojective", "E", 6, 3, oracles, "weight_orbit_total"),
    ],
)
def test_dim_orbit_oracle_route_runs_its_oracle(
    capsys, monkeypatch, family, dfam, n, vertex, module, name
):
    # a wrong oracle shows in the output: --oracle never hands back the engine's number
    engine = formulas.orbit_dim_total(family, DynkinDiagram(dfam, n), vertex)
    monkeypatch.setattr(module, name, _plus_one(module, name))
    argv = ["dim-orbit", "--family", family, "--diagram", f"{dfam}{n}"]
    code, payload = run_json(capsys, *argv, "--vertex", str(vertex), "--oracle")
    assert code == 0
    assert payload["results"]["total"] == str(engine + 1)
    code, payload = run_json(capsys, *argv, "--oracle")
    assert code == 0
    assert payload["results"]["totals"][str(vertex)] == str(engine + 1)
    code, payload = run_json(capsys, *argv, "--vertex", str(vertex))
    assert payload["results"] == {"total": str(engine)}


def test_dim_orbit_oracle_runs_the_corner_model_once(capsys, monkeypatch):
    # the fork vertices -1 and 1 of D_n share one corner enumeration
    lengths = []
    blocks = lattice.corner_path_blocks
    monkeypatch.setattr(lattice, "corner_path_blocks", lambda m: lengths.append(m) or blocks(m))
    code, payload = run_json(capsys, "dim-orbit", "--diagram", "D6", "--oracle")
    assert code == 0
    assert lengths == [5]
    assert payload["results"]["totals"]["-1"] == payload["results"]["totals"]["1"] == "240"


def test_genfun_families(capsys):
    code, payload = run_json(capsys, "genfun", "exp-h-ppa-A", "--order", "3")
    assert code == 0
    assert payload["results"]["terms"] == [["1"], ["1"], ["1", "1"], ["1", "4", "1"]]
    # z^n carries the rank n-1 entry, so the dimension families open with
    # two zero terms, mirroring the two leading 1 terms of the h-family
    code, payload = run_json(capsys, "genfun", "ord-d-path-A", "--order", "4")
    assert code == 0
    assert payload["results"]["terms"] == [[], [], ["1"], ["8", "4"], ["46", "46", "10"]]
    # the zero polynomial serializes to the empty coefficient list
    code, payload = run_json(capsys, "genfun", "exp-d-ppa-A", "--order", "0")
    assert code == 0
    assert payload["results"]["terms"] == [[]]


def test_genfun_verify(capsys):
    code, payload = run_json(capsys, "genfun", "ord-h-path-A", "--order", "6", "--verify")
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])
    assert len(payload["checks"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        "eulerian A3",
        "narayana A3 --oracle",
        "dim-orbit --diagram A3",
        "genfun exp-h-ppa-A",
        "verify --suite all",
    ],
)
def test_csv_without_a_layout_is_refused(capsys, argv):
    command = argv.split()[0]
    assert cli.main(["--format", "csv", *argv.split()]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --format csv has no layout for {command}\n"
    assert captured.out == ""


def test_readme_cli_block_runs(capsys):
    # a renamed option or command must not leave the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    lines = [line for line in block.splitlines() if line.startswith("taupoly ")]
    assert len(lines) >= 10
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == cli.EXIT_OK, line
    capsys.readouterr()


def test_table_csv(capsys):
    code, out = run(capsys, "--format", "csv", "table", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n," + ",".join(f"j{j}" for j in range(9))
    assert lines[1] == "1,1,,,,,,,,"
    assert lines[3].startswith("3,10,46,46,")


def test_output_is_byte_stable(capsys):
    _, first = run(capsys, "--format", "json", "verify", "--suite", "examples")
    _, second = run(capsys, "--format", "json", "verify", "--suite", "examples")
    assert first == second


def test_verify_examples_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "examples")
    assert code == 0
    assert len(payload["checks"]) == 6


def test_verify_genfun_suite(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "genfun", "--order", "6")
    assert code == 0
    assert len(payload["checks"]) == 7


def test_verify_oracles_at_max_rank_3(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "oracles", "--max-rank", "3")
    assert code == 0
    names = {c["name"] for c in payload["checks"]}
    assert "tau-orbit-E6" in names
    assert "rectangle-paths-vs-formula-n<=12" in names


def test_verify_all_covers_every_operation_group(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    prefixes = (
        "table-",                  # formula engine over every family
        "example-",                # complex oracle and engine examples
        "complex-vs-formula-",     # hereditary complex vs closed forms
        "rectangle-paths",         # lattice rectangle model
        "corner-paths",            # lattice corner model
        "sign-sequences",          # lattice sign-sequence model
        "tau-orbit-",              # translate-orbit iteration
        "narayana-closed-vs-oracle",  # absolute-order oracle
        "genfun-",                 # series identities
        "aggregates-",             # aggregate closed forms
        "all-shifted-d",           # palindromicity and unimodality
        "group-statistics",        # descent/Narayana totals
        "complex-purity",          # purity of the complexes
        "disjoint-union",          # product rule
        "link-decomposition",      # link identity
    )
    for prefix in prefixes:
        assert any(name.startswith(prefix) for name in names), prefix
    assert all(c["pass"] for c in payload["checks"])


def test_internal_consistency_failure_exits_4(capsys, monkeypatch):
    # the simple roots and one vector comparable with none of them make an
    # antichain of rank + 1 roots, which the census refuses
    def roots(cartan):
        simple = [tuple(int(i == j) for j in range(len(cartan))) for i in range(len(cartan))]
        return simple + [(2, -1, 0, 0)]

    monkeypatch.setattr(oracles, "positive_roots", roots)
    assert cli.main(["narayana", "D4", "--oracle"]) == cli.EXIT_INTERNAL == 4
    assert "internal error" in capsys.readouterr().err


@pytest.fixture
def fresh_engine_cache():
    weyl._FACE_COUNTS.clear()
    yield
    weyl._FACE_COUNTS.clear()


def test_engine_divisibility_failure_exits_4(capsys, monkeypatch, fresh_engine_cache):
    # with h = 3 for A1 the path recursion asks 2 * Phi_1 = 5 * 1
    monkeypatch.setattr(DynkinDiagram, "coxeter_number", lambda self: 3)
    with pytest.raises(ConsistencyError, match="not divisible"):
        formulas.h_polynomial(formulas.PATH, DynkinDiagram("A", 1))
    assert cli.main(["narayana", "A1"]) == cli.EXIT_INTERNAL == 4
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, what, rank",
    [
        ("poly --family path --diagram A1000 --kind f", "path link recursion of A1000", 1000),
        ("poly --family ppa --diagram D201 --kind d", "preprojective link recursion of D201", 201),
        ("narayana A2xA1000", "path link recursion of A1000", 1000),
    ],
)
def test_engine_over_budget_is_refused_before_any_work(capsys, fresh_engine_cache, argv, what, rank):
    # the budget admits every rank up to 200
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        f"usage error: the {what} makes up to {rank**4:,} coefficient products,"
        " over the engine budget of 1,600,000,000\n"
    )
    assert captured.out == ""
    assert not weyl._FACE_COUNTS


@pytest.mark.parametrize("max_rank", ["0", "-3", "9"])
def test_verify_max_rank_out_of_range_fails_fast(capsys, max_rank):
    assert cli.main(["verify", "--suite", "oracles", "--max-rank", max_rank]) == 2
    captured = capsys.readouterr()
    assert "between 1 and 8" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["genfun", "ord-d-path-A", "--order", "13"], "at most 12"),
        (["verify", "--suite", "genfun", "--order", "13"], "at most 12"),
        (["genfun", "exp-h-ppa-A", "--order", "-1"], "at least 0"),
        (["genfun", "exp-h-ppa-A", "--order", "0", "--verify"], "at least 1"),
        (["verify", "--suite", "genfun", "--order", "0"], "at least 1"),
        (["verify", "--suite", "all", "--order", "0"], "at least 1"),
    ],
    ids=["genfun", "verify", "genfun-negative", "genfun-verify-0", "verify-0", "verify-all-0"],
)
def test_genfun_order_cap_fails_fast(capsys, argv, bound):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert bound in captured.err
    assert captured.out == ""


def test_genfun_order_12_runs(capsys):
    code, payload = run_json(capsys, "genfun", "ord-d-path-A", "--order", "12", "--verify")
    assert code == 0
    assert len(payload["results"]["terms"]) == 13
    code, payload = run_json(capsys, "verify", "--suite", "genfun", "--order", "12")
    assert code == 0
    assert len(payload["checks"]) == 7
