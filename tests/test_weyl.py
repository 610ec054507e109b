import re
from itertools import accumulate
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupoly import cli, formulas, hereditary, lattice, oracles, weyl
from taupoly.dynkin import DiagramUnion, DynkinDiagram, delete_vertex, parse_union
from taupoly.errors import (
    ORACLE_BUDGET,
    ConsistencyError,
    UsageError,
    check_oracle_budget,
)
from taupoly.oracles import (
    cartan_matrix,
    descent_counts,
    eulerian_a_by_enumeration,
    eulerian_by_orbit,
    eulerian_d_by_enumeration,
    even_signed_blocks,
    narayana_a,
    narayana_oracle,
    permutation_blocks,
    permutation_columns,
    signed_descent_counts,
    weight_orbit_total,
)
from taupoly.formulas import PATH, PREPROJECTIVE, h_polynomial, orbit_dim_total
from taupoly.polynomials import ONE, Polynomial

from reference import (
    _eulerian_even_signed,
    _eulerian_sym,
    descent_count_permutation,
    descent_count_signed,
)

A = lambda n: DynkinDiagram("A", n)
D = lambda n: DynkinDiagram("D", n)
E = lambda n: DynkinDiagram("E", n)


def test_eulerian_worked_values():
    assert h_polynomial(PREPROJECTIVE, A(3)) == Polynomial([1, 11, 11, 1])
    assert h_polynomial(PREPROJECTIVE, A(1)) == Polynomial([1, 1])
    assert h_polynomial(PREPROJECTIVE, DiagramUnion()) == ONE
    assert h_polynomial(PREPROJECTIVE, parse_union("A1xA1")) == Polynomial([1, 2, 1])


def test_two_letter_even_signed_model_by_hand():
    # the four even-signed words on two letters have descent counts 0,1,2,1
    words = [(1, 2), (2, 1), (-1, -2), (-2, -1)]
    hist = [0, 0, 0]
    for w in words:
        hist[descent_count_signed(w)] += 1
    assert hist == [1, 2, 1]


def test_eulerian_closed_matches_enumeration_type_a():
    # A9 is the largest rank within the oracle budget
    for rank in range(1, 10):
        assert h_polynomial(PREPROJECTIVE, A(rank)) == eulerian_a_by_enumeration(rank)


def test_eulerian_closed_matches_enumeration_type_d():
    # D8 is the largest rank within the oracle budget
    for rank in range(4, 9):
        assert h_polynomial(PREPROJECTIVE, D(rank)) == eulerian_d_by_enumeration(rank)


def _words(blocks):
    # a block holds one word per column
    return [tuple(word) for block in blocks for word in block.T.tolist()]


@pytest.mark.parametrize("m", range(1, 8))
def test_permutation_arrays_hold_each_permutation_once(m):
    letters = list(range(1, m + 1))
    arrays = [_words([permutation_columns(m)])]
    if m >= 2:  # permutation_blocks inserts two letters
        arrays.append(_words(permutation_blocks(m)))
    for words in arrays:
        assert len(words) == len(set(words)) == factorial(m)
        assert all(sorted(word) == letters for word in words)


@pytest.mark.parametrize("rank", range(4, 7))
def test_even_signed_blocks_hold_each_word_once(rank):
    words = _words(even_signed_blocks(rank))
    assert len(words) == len(set(words)) == D(rank).group_order()
    for word in words:
        assert sorted(map(abs, word)) == list(range(1, rank + 1))
        assert sum(v < 0 for v in word) % 2 == 0


def test_row_descent_counts_match_the_tuple_definitions():
    for rank in range(1, 7):
        for block in permutation_blocks(rank + 1):
            expected = [descent_count_permutation(word) for word in block.T.tolist()]
            assert descent_counts(block).tolist() == expected
    for rank in range(4, 7):
        for block in even_signed_blocks(rank):
            expected = [descent_count_signed(word) for word in block.T.tolist()]
            assert signed_descent_counts(block).tolist() == expected


def test_signed_and_orbit_models_agree_on_d4_d5():
    for rank in (4, 5):
        assert eulerian_d_by_enumeration(rank) == eulerian_by_orbit(D(rank))


def _fundamental(diagram, ell):
    return [int(v == ell) for v in diagram.vertices]


def test_orbit_levels_make_each_point_once():
    # no visited set: level k must be exactly the points w(start) with k
    # positive roots pairing negatively with them, the length of the
    # shortest w in their coset; from rho that is every group element
    for diagram in (A(1), A(2), A(3), A(4), A(5), D(4), D(5), E(6)):
        cartan = cartan_matrix(diagram)
        roots = np.array(oracles.positive_roots(cartan))
        starts = [((1,) * diagram.rank, diagram.group_order())] + [
            (_fundamental(diagram, ell), weyl.coset_count(diagram, ell))
            for ell in diagram.vertices
        ]
        for start, size in starts:
            levels = [level for level, _ in oracles.orbit_levels(cartan, start)]
            for k, level in enumerate(levels):
                assert ((roots @ level < 0).sum(axis=0) == k).all(), (diagram, start, k)
            points = np.concatenate(levels, axis=1)
            assert len(np.unique(points, axis=1).T) == points.shape[1] == size


def test_descent_distribution_reports_running_counts():
    seen = []
    hist = oracles.descent_distribution(cartan_matrix(A(2)), progress=seen.append)
    assert hist == [1, 4, 1]
    assert seen == [1, 3, 5, 6]


def test_miscounted_orbit_is_an_internal_error(monkeypatch):
    traverse = oracles.orbit_levels

    def one_point_too_many(cartan, start):
        yield from traverse(cartan, start)
        yield np.ones((cartan.shape[0], 1), dtype=np.int8), np.zeros(1, dtype=np.int64)

    monkeypatch.setattr(oracles, "orbit_levels", one_point_too_many)
    with pytest.raises(ConsistencyError, match="A2 weight orbit: 7 points, not 6"):
        eulerian_by_orbit(A(2))
    with pytest.raises(ConsistencyError, match="E6 weight orbit at vertex 1: 28 points, not 27"):
        weight_orbit_total(E(6), 1)


def test_eulerian_engine_matches_weight_orbit():
    # the orbit's point count is the group order, which also pins the
    # type E degrees that DynkinDiagram.group_order multiplies
    for diagram in (D(4), D(5), E(6), E(7)):
        orbit = eulerian_by_orbit(diagram)
        assert h_polynomial(PREPROJECTIVE, diagram) == orbit
        assert orbit(1) == diagram.group_order()


def test_weight_orbit_matches_lattice_models():
    for n in range(1, 9):
        for ell in A(n).vertices:
            assert weight_orbit_total(A(n), ell) == lattice.orbit_total(A(n), ell)
    for n in range(4, 9):
        for ell in D(n).vertices:
            assert weight_orbit_total(D(n), ell) == lattice.orbit_total(D(n), ell)


def test_weight_orbit_largest_height_is_the_path_total():
    # the height of w_ell - w0(w_ell) is 2 ht(w_ell), the dimension of the
    # preprojective projective at ell
    diagrams = [A(n) for n in range(1, 10)] + [D(n) for n in range(4, 10)] + [E(6), E(7), E(8)]
    for diagram in diagrams:
        cartan = cartan_matrix(diagram)
        for ell in diagram.vertices:
            levels = oracles.orbit_levels(cartan, _fundamental(diagram, ell))
            highest = max(int(heights.max()) for _, heights in levels)
            assert highest == orbit_dim_total(PATH, diagram, ell), (diagram, ell)


def test_eulerian_engine_matches_triangles():
    for rank in range(1, 12):
        assert h_polynomial(PREPROJECTIVE, A(rank)) == Polynomial(_eulerian_sym(rank + 1))
    for rank in range(4, 12):
        assert h_polynomial(PREPROJECTIVE, D(rank)) == Polynomial(_eulerian_even_signed(rank))


def test_narayana_engine_matches_antichain_census():
    # A11 and D10 are the last ranks whose census takes under ~40 ms
    diagrams = [A(n) for n in range(1, 12)] + [D(n) for n in range(4, 11)] + [E(6), E(7), E(8)]
    for diagram in diagrams:
        assert h_polynomial(PATH, diagram) == narayana_oracle(diagram), diagram


def _support_order(roots):
    support = roots > 0
    return (support[:, None] <= support[None]).all(axis=2)


def test_narayana_census_tells_the_root_order_from_support_inclusion(monkeypatch):
    # type A roots are intervals, so there the root order is inclusion of
    # supports; D5 and E6 have roots of one support and other coefficients
    monkeypatch.setattr(oracles, "root_order", _support_order)
    for rank in range(1, 8):
        assert narayana_oracle(A(rank)) == h_polynomial(PATH, A(rank))
    for diagram in (D(5), E(6)):
        assert narayana_oracle(diagram) != h_polynomial(PATH, diagram), diagram


def test_narayana_census_refuses_a_strict_root_order(monkeypatch):
    # with < in place of <= one pair of D4's twelve roots compares, so the
    # incomparability graph holds more than Catalan(W) cliques; E8's would
    # hold billions below the rank, so the census stops at the count
    strict = lambda roots: (roots[:, None] < roots[None]).all(axis=2)
    monkeypatch.setattr(oracles, "root_order", strict)
    for diagram in (D(4), E(8)):
        too_many = f"^more than {diagram.catalan_count():,} cliques$"
        with pytest.raises(ConsistencyError, match=too_many):
            narayana_oracle(diagram)


def test_narayana_engine_matches_closed_form():
    for rank in range(1, 12):
        assert h_polynomial(PATH, A(rank)) == narayana_a(rank)


@st.composite
def diagram_unions(draw, budget: int = 6):
    """Unions of A/D/E components of total rank at most ``budget``."""
    lowest = {"A": 1, "D": 4, "E": 6}
    components = []
    while budget and draw(st.booleans()):
        family = draw(st.sampled_from([f for f, low in lowest.items() if low <= budget]))
        rank = 6 if family == "E" else draw(st.integers(lowest[family], budget))
        components.append(DynkinDiagram(family, rank))
        budget -= rank
    return DiagramUnion(tuple(components))


@settings(max_examples=30, deadline=None)
@given(diagram_unions())
def test_engine_equals_oracle_on_random_unions(union):
    for poly, oracle in (
        (h_polynomial(PREPROJECTIVE, union), oracles.eulerian(union)),
        (h_polynomial(PATH, union), oracles.narayana(union)),
    ):
        assert poly == oracle
        assert poly.degree == union.rank
        assert poly.is_palindromic(union.rank)


def test_group_orders():
    for rank in range(1, 10):
        assert h_polynomial(PREPROJECTIVE, A(rank))(1) == A(rank).group_order()
    for rank in range(4, 9):
        assert h_polynomial(PREPROJECTIVE, D(rank))(1) == D(rank).group_order()
    assert h_polynomial(PREPROJECTIVE, E(6))(1) == 51840


def test_eulerian_palindromic():
    for diagram in (A(5), A(8), D(4), D(7), E(6)):
        assert h_polynomial(PREPROJECTIVE, diagram).is_palindromic(diagram.rank)


def test_product_over_components():
    union = parse_union("A1xA4")
    factors = h_polynomial(PREPROJECTIVE, A(1)) * h_polynomial(PREPROJECTIVE, A(4))
    assert h_polynomial(PREPROJECTIVE, union) == factors
    # the rank-5 bullet value printed with these factors is the Narayana
    # one; descent counting gives the honest product
    assert h_polynomial(PATH, union).shifted(1) == Polynomial([84, 210, 196, 84, 16, 1])


def test_the_engine_deletes_each_vertex_once(monkeypatch):
    weyl._FACE_COUNTS.clear()
    weyl._LINKS.clear()
    calls = []

    def counted(d, ell):
        calls.append((d, ell))
        return delete_vertex(d, ell)

    monkeypatch.setattr(weyl, "delete_vertex", counted)
    for k in range(1, 7):
        formulas.reproduce_table(k)
    # one deletion per distinct (diagram, vertex) pair of tables 1-6
    assert len(calls) == len(set(calls)) == 105
    calls.clear()
    for k in range(1, 7):
        formulas.reproduce_table(k)
    assert calls == []


def test_counts_past_the_engine_budget_add_no_link_table(capsys):
    links = dict(weyl._LINKS)
    assert weyl.coset_count(A(20000), 1) == 20001
    assert cli.main(["dim-orbit", "--diagram", "A20000", "--oracle"]) == cli.EXIT_USAGE
    assert "over the oracle budget" in capsys.readouterr().err
    assert weyl._LINKS == links


def test_narayana_worked_values():
    assert h_polynomial(PATH, A(3)) == Polynomial([1, 6, 6, 1])
    assert h_polynomial(PATH, DiagramUnion()) == ONE
    assert narayana_oracle(A(2)) == Polynomial([1, 3, 1])
    assert narayana_oracle(A(1)) == Polynomial([1, 1])
    assert h_polynomial(PATH, D(4))(1) == 50
    assert h_polynomial(PATH, D(5))(1) == 182
    assert h_polynomial(PATH, E(6))(1) == 833


def test_narayana_closed_matches_oracle():
    for rank in range(1, 6):
        assert narayana_a(rank) == narayana_oracle(A(rank))


def test_positive_roots_closure():
    for diagram, count in ((A(4), 10), (D(4), 12), (E(6), 36)):
        cartan = cartan_matrix(diagram)
        roots = oracles.positive_roots(cartan)
        assert len(roots) == count
        assert roots == sorted(set(roots))
        # every one has norm 2, so is a root; sorted and distinct, they are all of them
        assert all(np.array(r) @ cartan @ np.array(r) == 2 for r in roots)


def test_feature_gates():
    # the oracle budget is the only gate, and the refusal names the estimate
    budget = "elements, over the oracle budget of 10,000,000"
    for call, estimate in (
        (lambda: eulerian_by_orbit(E(8)), "E8 weight orbit visits 696,729,600"),
        (lambda: oracles.eulerian(E(8)), "E8 weight orbit visits 696,729,600"),
        (lambda: eulerian_a_by_enumeration(10), "A10 descent enumeration visits 39,916,800"),
        (lambda: eulerian_d_by_enumeration(9), "D9 descent enumeration visits 92,897,280"),
        (lambda: narayana_oracle(D(14)), "D14 root-poset antichain census visits 29,716,000"),
        (lambda: oracles.narayana(A(15)), "A15 root-poset antichain census visits 35,357,670"),
    ):
        with pytest.raises(UsageError, match=f"^{estimate} {budget}$"):
            call()


@st.composite
def oracle_calls_over_budget(draw):
    """One call of each oracle on an input over the budget, with its estimate
    and its refusal's message."""
    extra = draw(st.integers(0, 20))
    a, d, census_a, census_d = A(10 + extra), D(9 + extra), A(15 + extra), D(14 + extra)
    n = 28 + extra
    near_half = draw(st.integers(n // 2 - 2, n // 2 + 2))
    tail = draw(st.integers(2, n // 2))
    small = A(1)
    quiver = A(300 + extra)  # N * n = 45,150 * 300 at the least
    modules = quiver.positive_root_count()
    translate = f"{quiver} translate orbits ({modules:,} modules of {quiver.rank} entries)"
    exact = [
        (lambda: eulerian_a_by_enumeration(a.rank), f"{a} descent enumeration", a.group_order()),
        (lambda: eulerian_d_by_enumeration(d.rank), f"{d} descent enumeration", d.group_order()),
        (lambda: eulerian_by_orbit(d), f"{d} weight orbit", d.group_order()),
        (lambda: eulerian_by_orbit(E(8)), "E8 weight orbit", E(8).group_order()),
        # the small component comes first in the union, so it would be
        # enumerated before the large one were refused
        (
            lambda: oracles.eulerian(DiagramUnion((small, a))),
            f"{a} descent enumeration",
            a.group_order(),
        ),
        (
            lambda: narayana_oracle(census_d),
            f"{census_d} root-poset antichain census",
            census_d.catalan_count(),
        ),
        (
            lambda: oracles.narayana(DiagramUnion((small, census_a))),
            f"{census_a} root-poset antichain census",
            census_a.catalan_count(),
        ),
        (
            lambda: lattice.orbit_total(A(n), near_half),
            f"A{n} rectangle model at vertex {near_half}",
            comb(n + 1, near_half),
        ),
        (lambda: lattice.orbit_total(D(n), 1), f"D{n} corner model", 2 ** (n - 1)),
        (
            lambda: lattice.orbit_total(D(n), tail),
            f"D{n} sign-sequence model at vertex {tail}",
            2 ** (n - tail) * comb(n, tail),
        ),
        (lambda: hereditary.tau_orbit_totals(quiver), translate, modules * quiver.rank),
        (
            lambda: weight_orbit_total(A(n), near_half),
            f"A{n} weight orbit at vertex {near_half}",
            comb(n + 1, near_half),
        ),
        (
            lambda: weight_orbit_total(D(n), tail),
            f"D{n} weight orbit at vertex {tail}",
            2 ** (n - tail) * comb(n, tail),
        ),
        (
            lambda: _dim_orbit_every_vertex("A", quiver.rank, "path"),
            translate,
            modules * quiver.rank,
        ),
    ]
    # the first vertices of A_n are within the budget on their own, so the
    # sum over every vertex must be refused before any of them runs, as soon
    # as its running total, a lower bound, passes the budget
    lower = [
        (
            lambda dfam=dfam: _dim_orbit_every_vertex(dfam, n),
            f"{dfam}{n} orbit-total oracle over every vertex",
            _running_total_over_budget(DynkinDiagram(dfam, n)),
        )
        for dfam in "AD"
    ]
    budget = f"elements, over the oracle budget of {ORACLE_BUDGET:,}"
    return [
        (call, estimate, f"{what} visits {estimate:,} {budget}") for call, what, estimate in exact
    ] + [
        (call, estimate, f"{what} visits at least {estimate:,} {budget}")
        for call, what, estimate in lower
    ]


def _running_total_over_budget(d):
    totals = accumulate(weyl.coset_count(d, v) for v in d.vertices)
    return next(total for total in totals if total > ORACLE_BUDGET)


def _dim_orbit_every_vertex(dfam, n, family="ppa"):
    argv = ["dim-orbit", "--family", family, "--diagram", f"{dfam}{n}", "--oracle"]
    return cli.cmd_dim_orbit(cli.build_parser().parse_args(argv))


@settings(max_examples=20, deadline=None)
@given(oracle_calls_over_budget())
def test_oracles_refuse_over_budget_before_any_work(calls):
    def work(*args, **kwargs):
        raise AssertionError("an oracle started work before its budget check")

    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (oracles, "_clique_census"),
            (oracles, "positive_roots"),
            (oracles, "descent_distribution"),
            (oracles, "orbit_levels"),
            (oracles, "permutation_columns"),
            (oracles, "permutation_blocks"),
            (oracles, "even_signed_blocks"),
            (lattice, "rect_path_blocks"),
            (lattice, "corner_path_blocks"),
            (lattice, "sign_sequence_blocks"),
            (hereditary, "path_cartan"),
            (hereditary, "translate_orbits"),
        ):
            patch.setattr(module, name, work)
        for call, estimate, message in calls:
            assert estimate > ORACLE_BUDGET
            with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
                call()


def test_estimates_past_60_digits_name_a_power_of_ten():
    budget = "elements, over the oracle budget of 10,000,000"
    with pytest.raises(UsageError, match=f"^a 60-digit oracle visits {10**60 - 1:,} {budget}$"):
        check_oracle_budget("a 60-digit oracle", 10**60 - 1)
    for bits in (200, 201, 1000, 14300, 60000):
        for elements in ((1 << bits) - 1, 1 << bits):
            huge = rf"^a huge oracle visits more than 10\^\d+ {budget}$"
            with pytest.raises(UsageError, match=huge) as refusal:
                check_oracle_budget("a huge oracle", elements, at_least=True)
            message = str(refusal.value)
            k = int(message.split("visits more than 10^")[1].split(" ")[0])
            # a true bound, and within a factor of 100 of the estimate
            assert 10**k < elements < 10 ** (k + 2)
            assert len(message) < 100


def test_oracle_flag_routes_every_family():
    assert oracles.eulerian(A(4)) == h_polynomial(PREPROJECTIVE, A(4))
    assert oracles.eulerian(D(4)) == h_polynomial(PREPROJECTIVE, D(4))
    assert oracles.narayana(parse_union("A2xA2")) == h_polynomial(PATH, parse_union("A2xA2"))
