"""Command-line surface.

Commands compute polynomials, reproduce the published tables, run the
brute-force oracles against the link-recursion engine, and verify the
generating-function identities.  The oracle modules, and numpy with
them, are imported only where an oracle runs.  Every run emits a report:
results plus a list of named checks with expected/actual values.  All
integers are serialized as decimal strings so nothing is ever squeezed
through a floating-point JSON number.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error
(any bad input, an --oracle input over the oracle budget included, on
stderr after ``usage error:``), 4 internal consistency failure (a bug,
never bad input, after ``internal error:``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cache

from . import formulas, series, weyl
from .dynkin import DynkinDiagram, parse_diagram, parse_union
from .errors import ConsistencyError, TaupolyError, UsageError, check_oracle_budget
from .formulas import PATH, PREPROJECTIVE
from .polynomials import Polynomial

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 4

# Bounds the cost of the generating-function identity checks, which grows
# fast with the order (all seven at order 24 take ~0.4 s on one Xeon core,
# order 12 ~0.05 s); the engine refuses every rank over 200 (errors.ENGINE_BUDGET).
MAX_GENFUN_ORDER = 12


@dataclass
class Report:
    command: str
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add_check(self, name: str, expected, actual) -> bool:
        return self._add(name, _stringify(expected), _stringify(actual), expected == actual)

    def add_pass_fail(self, name: str, ok: bool, detail: str = "") -> bool:
        return self._add(name, "pass", "pass" if ok else f"fail {detail}".strip(), ok)

    def _add(self, name: str, expected, actual, ok: bool) -> bool:
        self.checks.append({"name": name, "expected": expected, "actual": actual, "pass": ok})
        return ok

    @property
    def exit_status(self) -> int:
        return EXIT_OK if all(c["pass"] for c in self.checks) else EXIT_CHECK_FAILED

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "results": _stringify(self.results),
            "checks": self.checks,
            "exit_status": self.exit_status,
        }


def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Polynomial):
        return value.to_decimal_strings()
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def _table_csv(results: dict) -> list[list]:
    rows = results["rows"]
    width = max(map(len, rows.values()))
    header = ["n", *(f"j{j}" for j in range(width))]
    return [header] + [[n, *row] + [""] * (width - len(row)) for n, row in rows.items()]


# the commands with a CSV layout: a function of the results giving the rows
CSV_LAYOUTS = {"poly": lambda results: [results["coefficients_ascending"]], "table": _table_csv}


def _emit(report: Report, args) -> None:
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        return
    if args.format == "csv":
        for row in CSV_LAYOUTS[args.command](report.results):
            print(",".join(map(str, row)))
    else:
        for key, value in report.results.items():
            print(f"{key}: {_plain(value)}")
    for check in report.checks:
        status = "PASS" if check["pass"] else "FAIL"
        line = f"[{status}] {check['name']}"
        if not check["pass"]:
            line += f" (expected {check['expected']}, got {check['actual']})"
        print(line)


def _plain(value) -> str:
    if isinstance(value, Polynomial):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_plain(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    return str(value)


def _family_arg(value: str) -> str:
    norm = value.lower()
    if norm in ("preprojective", "ppa"):
        return PREPROJECTIVE
    if norm in ("path", "kq"):
        return PATH
    raise UsageError(f"unknown family {value!r}")


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def cmd_poly(args) -> Report:
    family = _family_arg(args.family)
    diagram = parse_diagram(args.diagram)
    kind = args.kind
    report = Report(command=f"poly --family {family} --diagram {diagram} --kind {kind}")
    if args.oracle:
        # the complex of tau-rigid pairs of the diagram's quiver
        if family != PATH:
            raise UsageError(f"poly --oracle has no route for the {family} family")
        from . import hereditary

        quiver = hereditary.OrientedQuiver.from_diagram(diagram, args.orientation)
        complex_ = hereditary.tau_rigid_complex(quiver)
        poly = getattr(complex_, f"{kind}_polynomial")()
        orientation = f" --orientation {args.orientation}" if args.orientation else ""
        report.command += f" --oracle{orientation}"
    elif args.orientation is not None:
        raise UsageError("--orientation picks the quiver of the --oracle route")
    else:
        poly = getattr(formulas, f"{kind}_polynomial")(family, diagram)
    report.results["polynomial"] = poly
    report.results["coefficients_ascending"] = poly.to_decimal_strings()
    if args.oracle:
        report.results["maximal_faces"] = complex_.maximal_face_count
    if args.verify:
        _verify_single_poly(report, family, diagram, kind, poly)
    return report


def _verify_single_poly(
    report: Report, family: str, diagram: DynkinDiagram, kind: str, poly: Polynomial
) -> None:
    n = diagram.rank
    if kind == "d":
        shifted = poly.shifted(-1)
        report.add_pass_fail("shifted-palindromic", shifted.is_palindromic(n - 1))
        report.add_pass_fail("shifted-unimodal", shifted.is_unimodal())
        published = formulas.published_row(family, diagram)
        if published is not None:
            k, row = published
            report.add_check(f"table-{k}-row-{n}", row, formulas.table_row(poly, n))
        expected = formulas.expected_aggregates(family, diagram)
        if expected is not None:
            report.add_check("aggregates", expected, formulas.aggregate_coefficients(poly, n))
    elif kind == "f":
        report.add_pass_fail("shifted-palindromic", poly.shifted(-1).is_palindromic(n))
    else:
        report.add_pass_fail("palindromic", poly.is_palindromic(n))


# ---------------------------------------------------------------------------
# eulerian / narayana / dim-orbit
# ---------------------------------------------------------------------------


# the family whose h-polynomial each command names
_H_FAMILY = {"eulerian": PREPROJECTIVE, "narayana": PATH}


def cmd_h_polynomial(args) -> Report:
    # --oracle is the only thing that picks a route: the engine is
    # formulas.h_polynomial and the brute force oracles.<command>
    union = parse_union(args.diagram)
    if args.oracle:
        from . import oracles

        poly = getattr(oracles, args.command)(union)
    else:
        poly = formulas.h_polynomial(_H_FAMILY[args.command], union)
    report = Report(command=f"{args.command} {union}")
    report.results["polynomial"] = poly
    report.results["coefficients_ascending"] = poly.to_decimal_strings()
    return report


def _orbit_route(family: str, d: DynkinDiagram, oracle: bool):
    """The route of ``dim-orbit``: a function of a vertex of ``d`` giving
    the results to report.  Each preprojective oracle also counts the
    orbit of w_ell; the path oracle sweeps all the translate orbits at
    once and reports totals alone, since lengths depend on orientation."""
    if not oracle:
        return lambda ell: {"total": formulas.orbit_dim_total(family, d, ell)}
    if family == PATH:
        from .hereditary import tau_orbit_totals

        totals = tau_orbit_totals(d)
        return lambda ell: {"total": totals[ell]}
    if d.family == "E":
        from .oracles import weight_orbit_total as total_and_count
    else:
        from .lattice import orbit_total as total_and_count
    return lambda ell: dict(zip(("total", "count"), total_and_count(d, ell)))


def cmd_dim_orbit(args) -> Report:
    family = _family_arg(args.family)
    diagram = parse_diagram(args.diagram)
    ell = args.vertex
    if ell is not None:
        # before a route is picked, so every route names the diagram
        diagram.check_vertex(ell)
    report = Report(command=f"dim-orbit --family {family} --diagram {diagram}")
    route = _orbit_route(family, diagram, args.oracle)
    if ell is not None:
        report.results.update(route(ell))
        return report
    if args.oracle and family == PREPROJECTIVE:
        # every count is positive, so a running total is a lower bound
        what, estimate = f"{diagram} orbit-total oracle over every vertex", 0
        for v in diagram.vertices:
            estimate += weyl.coset_count(diagram, v)
            check_oracle_budget(what, estimate, at_least=True)
    # the automorphism of D_n swaps the fork vertices -1 and 1 and fixes
    # every other vertex, so one run serves both
    route = cache(route)
    report.results["totals"] = {v: route(abs(v))["total"] for v in diagram.vertices}
    return report


# ---------------------------------------------------------------------------
# table / genfun
# ---------------------------------------------------------------------------


def cmd_table(args) -> Report:
    k = args.number
    rows = formulas.reproduce_table(k)
    report = Report(command=f"table {k}")
    report.results["rows"] = {n: list(rows[n]) for n in sorted(rows)}
    return report


# name -> (algebra family, polynomial kind, identity checks)
_GENFUN = {
    "exp-h-ppa-A": (
        PREPROJECTIVE,
        "h",
        (series.verify_identity_euler_ode, series.verify_euler_closed_form),
    ),
    "exp-d-ppa-A": (
        PREPROJECTIVE,
        "d",
        (series.verify_dpoly_genfun_ppa, series.verify_ppa_closed_form_variants),
    ),
    "ord-h-path-A": (
        PATH,
        "h",
        (series.verify_identity_narayana_quadratic, series.verify_narayana_sqrt_reconstruction),
    ),
    "ord-d-path-A": (PATH, "d", (series.verify_dpoly_genfun_path,)),
}


def _check_genfun_order(order: int, identities: bool) -> None:
    """Order 0 up to MAX_GENFUN_ORDER; at least 1 when identities are
    checked, since they differentiate."""
    low = 1 if identities else 0
    if order < low:
        when = " when identities are checked" if identities else ""
        raise UsageError(f"genfun order must be at least {low}{when}, got {order}")
    if order > MAX_GENFUN_ORDER:
        raise UsageError(f"genfun order must be at most {MAX_GENFUN_ORDER}, got {order}")


def cmd_genfun(args) -> Report:
    name = args.name
    if name not in _GENFUN:
        raise UsageError(f"genfun name must be one of {sorted(_GENFUN)}")
    _check_genfun_order(args.order, args.verify)
    family, kind, checks = _GENFUN[name]
    polys = series.type_a_family(family, kind, args.order + 1)
    report = Report(command=f"genfun {name} --order {args.order}")
    report.results["terms"] = [p.to_decimal_strings() for p in polys]
    if args.verify:
        reports = [check(args.order) for check in checks]
        report.results["identity_reports"] = [r.to_dict() for r in reports]
        for rep in reports:
            report.add_pass_fail(
                rep.name, rep.passed, f"at z^{rep.mismatch_power}" if not rep.passed else ""
            )
    return report


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_tables(report: Report, args) -> None:
    for k in range(1, 7):
        report.add_check(f"table-{k}", formulas.golden_table(k), formulas.reproduce_table(k))


def _suite_examples(report: Report, args) -> None:
    from . import hereditary

    q = hereditary.OrientedQuiver.line(3)
    complex_ = hereditary.tau_rigid_complex(q)
    report.add_check("example-path-A3-f", Polynomial([14, 21, 9, 1]), complex_.f_polynomial())
    report.add_check("example-path-A3-h", Polynomial([1, 6, 6, 1]), complex_.h_polynomial())
    report.add_check("example-path-A3-d", Polynomial([46, 46, 10]), complex_.d_polynomial())
    a3 = DynkinDiagram("A", 3)
    for kind, expected in (("f", [24, 36, 14, 1]), ("h", [1, 11, 11, 1]), ("d", [120, 120, 24])):
        actual = getattr(formulas, f"{kind}_polynomial")(PREPROJECTIVE, a3)
        report.add_check(f"example-ppa-A3-{kind}", Polynomial(expected), actual)


def _suite_oracles(report: Report, args) -> None:
    from . import hereditary, lattice, oracles

    # every orientation of the type A quivers against the closed engine
    for n in range(1, args.max_rank + 1):
        a_n = DynkinDiagram("A", n)
        d = formulas.d_polynomial(PATH, a_n)
        h = formulas.h_polynomial(PATH, a_n)
        f = formulas.f_polynomial(PATH, a_n)
        for orientation in hereditary.orientations(a_n):
            q = hereditary.OrientedQuiver.line(n, orientation)
            complex_ = hereditary.tau_rigid_complex(q)
            ok = (
                complex_.d_polynomial() == d
                and complex_.h_polynomial() == h
                and complex_.f_polynomial() == f
            )
            report.add_pass_fail(f"complex-vs-formula-A{n}-{orientation or 'o'}", ok)
    # lattice enumerations against the engine's orbit totals and the
    # coset counts, one path or sequence per coset
    def engine(dfam: str, n: int, ell: int) -> tuple[int, int]:
        d = DynkinDiagram(dfam, n)
        return formulas.orbit_dim_total(PREPROJECTIVE, d, ell), weyl.coset_count(d, ell)

    rect_ok = all(
        lattice.orbit_total(DynkinDiagram("A", n), ell) == engine("A", n, ell)
        for n in range(1, 13)
        for ell in range(1, n + 1)
    )
    report.add_pass_fail("rectangle-paths-vs-formula-n<=12", rect_ok)
    # one corner enumeration per n serves both fork vertices
    corner_ok = all(
        lattice.orbit_total(DynkinDiagram("D", n), 1) == engine("D", n, 1) == engine("D", n, -1)
        for n in range(4, 13)
    )
    report.add_pass_fail("corner-paths-vs-formula-n<=12", corner_ok)
    sign_ok = all(
        lattice.orbit_total(DynkinDiagram("D", n), ell) == engine("D", n, ell)
        for n in range(4, 13)
        for ell in range(2, n)
    )
    report.add_pass_fail("sign-sequences-vs-formula-n<=12", sign_ok)
    # translate orbits against the engine's path-family orbit totals
    for rank in (6, 7, 8):
        diagram = DynkinDiagram("E", rank)
        totals = tuple(formulas.orbit_dim_total(PATH, diagram, ell) for ell in diagram.vertices)
        orbit = tuple(hereditary.tau_orbit_totals(diagram).values())
        report.add_check(f"tau-orbit-E{rank}", totals, orbit)
    # Narayana closed formula vs oracle on small ranks
    for rank in range(1, min(args.max_rank, 5) + 1):
        report.add_check(
            f"narayana-closed-vs-oracle-A{rank}",
            oracles.narayana_a(rank),
            oracles.narayana_oracle(DynkinDiagram("A", rank)),
        )


def _suite_genfun(report: Report, args) -> None:
    for rep in series.verify_all_identities(args.order):
        report.add_pass_fail(f"genfun-{rep.name}-order-{rep.order}", rep.passed)


def _suite_aggregates(report: Report, args) -> None:
    for family, dfam, lo in (
        (PREPROJECTIVE, "A", 1),
        (PATH, "A", 1),
        (PATH, "D", 4),
        (PREPROJECTIVE, "D", 4),
    ):
        for n in range(lo, 10):
            diagram = DynkinDiagram(dfam, n)
            closed = formulas.aggregate_totals_closed(family, diagram)
            expected = formulas.expected_aggregates(family, diagram)
            report.add_check(f"aggregates-{family}-{dfam}{n}", expected, closed)
            poly = formulas.d_polynomial(family, diagram)
            poly_route = formulas.aggregate_coefficients(poly, n)
            report.add_check(f"aggregates-poly-route-{family}-{dfam}{n}", closed, poly_route)


def _suite_structural(report: Report, args) -> None:
    from . import hereditary

    diagrams = [
        DynkinDiagram(dfam, n)
        for dfam, ranks in (("A", range(1, 10)), ("D", range(4, 10)), ("E", (6, 7, 8)))
        for n in ranks
    ]
    # palindromicity and unimodality of every shifted dimension polynomial
    ok = True
    for family in (PREPROJECTIVE, PATH):
        for diagram in diagrams:
            n = diagram.rank
            shifted = formulas.d_polynomial(family, diagram).shifted(-1)
            if not (shifted.is_palindromic(n - 1) and shifted.is_unimodal()):
                ok = False
    report.add_pass_fail("all-shifted-d-palindromic-unimodal", ok)
    # descent and Narayana polynomials: palindromic, correct totals
    stats_ok = True
    for diagram in diagrams:
        totals = {PREPROJECTIVE: diagram.group_order(), PATH: diagram.catalan_count()}
        for family, total in totals.items():
            h = formulas.h_polynomial(family, diagram)
            if not h.is_palindromic(diagram.rank) or h(1) != total:
                stats_ok = False
    report.add_pass_fail("group-statistics-palindromic-with-known-totals", stats_ok)
    # purity and maximal-face counts of the complexes
    purity_ok = True
    for n in range(1, args.max_rank + 1):
        catalan = DynkinDiagram("A", n).catalan_count()
        for orientation in hereditary.orientations(DynkinDiagram("A", n)):
            complex_ = hereditary.tau_rigid_complex(
                hereditary.OrientedQuiver.line(n, orientation)
            )
            if complex_.maximal_face_count != catalan:
                purity_ok = False
    report.add_pass_fail("complex-purity-and-maximal-face-counts", purity_ok)
    # product rule and link decomposition on oracle instances
    q1 = hereditary.OrientedQuiver.line(1)
    q2 = hereditary.OrientedQuiver.line(2)
    report.add_pass_fail(
        "disjoint-union-product-rule",
        hereditary.disjoint_union_d_check(q1, q1)
        and hereditary.disjoint_union_d_check(q1, q2)
        and hereditary.disjoint_union_d_check(q2, q2),
    )
    link_ok = True
    for n in range(1, min(args.max_rank, 5) + 1):
        complex_ = hereditary.tau_rigid_complex(hereditary.OrientedQuiver.line(n))
        total = Polynomial()
        for idx, dim in enumerate(complex_.dims[: len(complex_.roots)]):
            total = total + dim * complex_.link_f_polynomial(idx)
        if total != complex_.d_polynomial():
            link_ok = False
    report.add_pass_fail("link-decomposition-identity", link_ok)


def _check_max_rank(max_rank: int) -> None:
    from .hereditary import _COMPLEX_RANK_CAP as cap

    if not 1 <= max_rank <= cap:
        raise UsageError(f"--max-rank must be between 1 and {cap}, got {max_rank}")


# the verify suites, in the order ``--suite all`` runs them
SUITES = {
    "tables": _suite_tables,
    "examples": _suite_examples,
    "oracles": _suite_oracles,
    "genfun": _suite_genfun,
    "aggregates": _suite_aggregates,
    "structural": _suite_structural,
}


def cmd_verify(args) -> Report:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if "genfun" in names:
        _check_genfun_order(args.order, True)
    if "oracles" in names or "structural" in names:
        _check_max_rank(args.max_rank)
    report = Report(command=f"verify --suite {args.suite}")
    for name in names:
        SUITES[name](report, args)
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# built once per process: main reuses it, as parsing leaves it unchanged
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taupoly", description=__doc__)
    parser.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="compute a polynomial of an algebra")
    p.add_argument("--family", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--kind", required=True, choices=("d", "f", "h"))
    p.add_argument("--verify", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--orientation")
    p.set_defaults(fn=cmd_poly)

    for name, help_ in (
        ("eulerian", "descent-count polynomial of a diagram or union"),
        ("narayana", "Narayana polynomial of a diagram or union"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("diagram")
        p.add_argument("--oracle", action="store_true")
        p.set_defaults(fn=cmd_h_polynomial)

    p = sub.add_parser("dim-orbit", help="per-vertex orbit dimension totals")
    p.add_argument("--family", default="ppa")
    p.add_argument("--diagram", required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(fn=cmd_dim_orbit)

    p = sub.add_parser("table", help="recompute a published table")
    p.add_argument("number", type=int, choices=range(1, 7))
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("genfun", help="generating-function coefficient families")
    p.add_argument("name")
    p.add_argument("--order", type=int, default=series.DEFAULT_ORDER)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_genfun)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=(*SUITES, "all"),
    )
    p.add_argument("--order", type=int, default=series.DEFAULT_ORDER)
    p.add_argument("--max-rank", type=int, default=5)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.command not in CSV_LAYOUTS:
            raise UsageError(f"--format csv has no layout for {args.command}")
        report = args.fn(args)
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TaupolyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is left, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
