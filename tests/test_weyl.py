from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupoly import cli, hereditary, lattice, oracles, weyl
from taupoly.dynkin import DiagramUnion, DynkinDiagram, parse_union
from taupoly.errors import ORACLE_BUDGET, ConsistencyError, RankTooLarge
from taupoly.oracles import (
    absolute_length,
    all_group_matrices,
    cartan_matrix,
    coxeter_element_matrix,
    default_coxeter_order,
    descent_count_permutation,
    descent_count_signed,
    descent_counts,
    eulerian_a_by_enumeration,
    eulerian_by_orbit,
    eulerian_d_by_enumeration,
    even_signed_blocks,
    integer_rank,
    narayana_a,
    narayana_oracle,
    permutation_blocks,
    permutation_rows,
    reflection_length_table,
    signed_descent_counts,
    weight_orbit_total,
)
from taupoly.formulas import PATH, orbit_dim_total
from taupoly.polynomials import ONE, Polynomial
from taupoly.weyl import eulerian_poly, narayana_poly

A = lambda n: DynkinDiagram("A", n)
D = lambda n: DynkinDiagram("D", n)
E = lambda n: DynkinDiagram("E", n)


def test_eulerian_worked_values():
    assert eulerian_poly(A(3)) == Polynomial([1, 11, 11, 1])
    assert eulerian_poly(A(1)) == Polynomial([1, 1])
    assert eulerian_poly(DiagramUnion()) == ONE
    assert eulerian_poly(parse_union("A1xA1")) == Polynomial([1, 2, 1])


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
        assert eulerian_poly(A(rank)) == eulerian_a_by_enumeration(rank)


def test_eulerian_closed_matches_enumeration_type_d():
    # D8 is the largest rank within the oracle budget
    for rank in range(4, 9):
        assert eulerian_poly(D(rank)) == eulerian_d_by_enumeration(rank)


def _rows(blocks):
    return [tuple(row) for block in blocks for row in block.tolist()]


@pytest.mark.parametrize("m", range(1, 8))
def test_permutation_arrays_hold_each_permutation_once(m):
    letters = list(range(1, m + 1))
    arrays = [_rows([permutation_rows(m)])]
    if m >= 2:  # permutation_blocks inserts two letters
        arrays.append(_rows(permutation_blocks(m)))
    for rows in arrays:
        assert len(rows) == len(set(rows)) == factorial(m)
        assert all(sorted(row) == letters for row in rows)


@pytest.mark.parametrize("rank", range(4, 7))
def test_even_signed_blocks_hold_each_word_once(rank):
    rows = _rows(even_signed_blocks(rank))
    assert len(rows) == len(set(rows)) == D(rank).group_order()
    for row in rows:
        assert sorted(map(abs, row)) == list(range(1, rank + 1))
        assert sum(v < 0 for v in row) % 2 == 0


def test_row_descent_counts_match_the_tuple_definitions():
    for rank in range(1, 7):
        for block in permutation_blocks(rank + 1):
            expected = [descent_count_permutation(row) for row in block.tolist()]
            assert descent_counts(block).tolist() == expected
    for rank in range(4, 7):
        for block in even_signed_blocks(rank):
            expected = [descent_count_signed(row) for row in block.tolist()]
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
        assert eulerian_poly(diagram) == orbit
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
        assert eulerian_poly(A(rank)) == Polynomial(oracles._eulerian_sym(rank + 1))
    for rank in range(4, 12):
        assert eulerian_poly(D(rank)) == Polynomial(oracles._eulerian_even_signed(rank))


def test_narayana_engine_matches_interval_walk():
    # E8 (~1 s) is compared through the CLI in test_oracle_over_budget_exits_2
    diagrams = [A(n) for n in range(1, 10)] + [D(n) for n in range(4, 9)] + [E(6), E(7)]
    for diagram in diagrams:
        assert narayana_poly(diagram) == narayana_oracle(diagram), diagram


def test_narayana_engine_matches_closed_form():
    for rank in range(1, 12):
        assert narayana_poly(A(rank)) == narayana_a(rank)


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
        (eulerian_poly(union), oracles.eulerian(union)),
        (narayana_poly(union), oracles.narayana(union)),
    ):
        assert poly == oracle
        assert poly.degree == union.rank
        assert poly.is_palindromic(union.rank)


def test_group_orders():
    for rank in range(1, 10):
        assert eulerian_poly(A(rank))(1) == A(rank).group_order()
    for rank in range(4, 9):
        assert eulerian_poly(D(rank))(1) == D(rank).group_order()
    assert eulerian_poly(E(6))(1) == 51840


def test_eulerian_palindromic():
    for diagram in (A(5), A(8), D(4), D(7), E(6)):
        assert eulerian_poly(diagram).is_palindromic(diagram.rank)


def test_product_over_components():
    union = parse_union("A1xA4")
    assert eulerian_poly(union) == eulerian_poly(A(1)) * eulerian_poly(A(4))
    # the rank-5 bullet value printed with these factors is the Narayana
    # one; descent counting gives the honest product
    assert narayana_poly(union).shifted(1) == Polynomial([84, 210, 196, 84, 16, 1])


def test_narayana_worked_values():
    assert narayana_poly(A(3)) == Polynomial([1, 6, 6, 1])
    assert narayana_poly(DiagramUnion()) == ONE
    assert narayana_oracle(A(2)) == Polynomial([1, 3, 1])
    assert narayana_oracle(A(1)) == Polynomial([1, 1])
    assert narayana_poly(D(4))(1) == 50
    assert narayana_poly(D(5))(1) == 182
    assert narayana_poly(E(6))(1) == 833


def test_narayana_closed_matches_oracle():
    for rank in range(1, 6):
        assert narayana_a(rank) == narayana_oracle(A(rank))


def test_narayana_coxeter_order_independence():
    a3 = A(3)
    assert narayana_oracle(a3, coxeter_order=(1, 2, 3)) == narayana_oracle(
        a3, coxeter_order=(2, 1, 3)
    )
    d4 = D(4)
    assert narayana_oracle(d4, coxeter_order=(-1, 1, 3, 2)) == narayana_oracle(
        d4, coxeter_order=(2, -1, 1, 3)
    )
    for d in (D(6), E(6)):
        default = narayana_oracle(d)
        assert narayana_oracle(d, coxeter_order=d.vertices) == default
        assert narayana_oracle(d, coxeter_order=d.vertices[::-1]) == default


def _interval_histograms_by_enumeration(d, orders):
    """Reflection lengths over [1, c], for the Coxeter element c of each
    order, by the whole-group membership rule l(w) + l(w^{-1} c) = rank;
    independent of the interval walk.  l(w^{-1} c) is the rank of
    w^{-1} c - I = w^{-1} (c - w), which is the rank of c - w because w is
    invertible."""
    coxes = [coxeter_element_matrix(d, order) for order in orders]
    hists = [[0] * (d.rank + 1) for _ in orders]
    for w in all_group_matrices(d):
        length = absolute_length(w)
        for hist, cox in zip(hists, coxes):
            if length + integer_rank((cox - w).tolist()) == d.rank:
                hist[length] += 1
    return [Polynomial(hist) for hist in hists]


@pytest.mark.parametrize("d", [A(1), A(2), A(3), A(4), D(4), D(5)], ids=str)
def test_interval_walk_matches_whole_group_enumeration(d):
    orders = (default_coxeter_order(d), d.vertices, d.vertices[::-1])
    expected = _interval_histograms_by_enumeration(d, orders)
    assert [narayana_oracle(d, coxeter_order=order) for order in orders] == expected


@pytest.mark.parametrize("d", [A(1), A(2), A(3), A(4), D(4), D(5)], ids=str)
def test_fixed_space_sums_match_the_rank_rule(d):
    # S = I + w + ... + w^(m-1) against the fraction-free rank on the
    # whole group: trace S = m (n - l(w)), and S kills a root exactly when
    # it lies in Im(w - I), i.e. when [w - I | alpha] has rank l(w)
    eye = np.eye(d.rank, dtype=np.int64)
    roots = oracles.positive_roots(cartan_matrix(d))
    mats = all_group_matrices(d)
    sums, order = oracles._fixed_space_sums(np.array(mats))
    for w, s, m in zip(mats, sums, order.tolist()):
        assert (np.linalg.matrix_power(w, m) == eye).all()
        length = absolute_length(w)
        assert np.trace(s) == m * (d.rank - length)
        shifted = w - eye
        for alpha in roots:
            spans = integer_rank(np.column_stack([shifted, alpha]).tolist()) == length
            assert (not (s @ np.array(alpha)).any()) == spans, (w, alpha)


def test_interval_walk_rejects_a_start_below_full_length():
    cartan = cartan_matrix(D(4))
    reflection = oracles.simple_reflection_matrices(cartan)[0]
    with pytest.raises(ConsistencyError, match="another reflection length"):
        oracles.interval_walk(cartan, reflection)


def test_interval_walk_reports_progress_per_level():
    seen = []
    hist = narayana_oracle(D(4), progress=seen.append)
    assert seen == [1, 13, 37, 49, 50]
    assert hist(1) == seen[-1]


def test_absolute_length_basics():
    n = 4
    d4 = D(4)
    eye = np.eye(n, dtype=np.int64)
    assert absolute_length(eye) == 0
    for refl in oracles.simple_reflection_matrices(cartan_matrix(d4)):
        assert absolute_length(refl) == 1
    assert absolute_length(coxeter_element_matrix(d4)) == 4


def test_absolute_length_against_reflection_bfs():
    for diagram in (A(4), D(4)):
        lengths = reflection_length_table(diagram)
        mats = all_group_matrices(diagram)
        assert len(mats) == diagram.group_order()
        assert len(lengths) == diagram.group_order()
        for mat in mats:
            assert absolute_length(mat) == lengths[mat.tobytes()]


def test_coxeter_element_is_admissible_for_bipartition():
    # the default order is two independent blocks, so it is a topological
    # order of the alternating orientation (sources first)
    for d in (A(5), D(5), E(6)):
        order = default_coxeter_order(d)
        assert sorted(order) == sorted(d.vertices)
        position = {v: i for i, v in enumerate(order)}
        splits = [
            k
            for k in range(len(order) + 1)
            if all((position[a] < k) != (position[b] < k) for a, b in d.edges)
        ]
        assert splits, f"no independent two-block split for {d}"


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
    for call, estimate in (
        (lambda: eulerian_by_orbit(E(8)), "E8 weight orbit visits 696,729,600 elements"),
        (lambda: oracles.eulerian(E(8)), "696,729,600"),
        (lambda: eulerian_a_by_enumeration(10), "A10 descent enumeration visits 39,916,800"),
        (lambda: eulerian_d_by_enumeration(9), "D9 descent enumeration visits 92,897,280"),
        (lambda: narayana_oracle(D(10)), "D10 interval walk visits 12,252,240"),
        (lambda: oracles.narayana(A(11)), "A11 interval walk visits 13,728,792"),
    ):
        with pytest.raises(RankTooLarge, match=estimate):
            call()


@st.composite
def oracle_calls_over_budget(draw):
    """One call of each oracle on an input over the budget, with its estimate."""
    extra = draw(st.integers(0, 20))
    a, d, walk_a, walk_d = A(10 + extra), D(9 + extra), A(11 + extra), D(10 + extra)
    n = 28 + extra
    near_half = draw(st.integers(n // 2 - 2, n // 2 + 2))
    tail = draw(st.integers(2, n // 2))
    small = A(1)
    quiver = A(300 + extra)  # N * n = 45,150 * 300 at the least
    vertex = draw(st.integers(1, quiver.rank))
    return [
        (lambda: eulerian_a_by_enumeration(a.rank), a.group_order()),
        (lambda: eulerian_d_by_enumeration(d.rank), d.group_order()),
        (lambda: eulerian_by_orbit(d), d.group_order()),
        (lambda: eulerian_by_orbit(E(8)), E(8).group_order()),
        # the small component comes first in the union, so it would be
        # enumerated before the large one were refused
        (lambda: oracles.eulerian(DiagramUnion((small, a))), a.group_order()),
        (lambda: narayana_oracle(walk_d), walk_d.catalan_count() * walk_d.positive_root_count()),
        (
            lambda: oracles.narayana(DiagramUnion((small, walk_a))),
            walk_a.catalan_count() * walk_a.positive_root_count(),
        ),
        (lambda: lattice.orbit_total(A(n), near_half), comb(n + 1, near_half)),
        (lambda: lattice.orbit_total(D(n), 1), 2 ** (n - 1)),
        (lambda: lattice.orbit_total(D(n), tail), 2 ** (n - tail) * comb(n, tail)),
        (
            lambda: hereditary.tau_orbit_total(quiver, vertex),
            quiver.positive_root_count() * quiver.rank,
        ),
        (lambda: weight_orbit_total(A(n), near_half), comb(n + 1, near_half)),
        (lambda: weight_orbit_total(D(n), tail), 2 ** (n - tail) * comb(n, tail)),
        # the first vertices of A_n are within the budget on their own, so
        # the sum over every vertex must be refused before any of them runs
        (lambda: _dim_orbit_every_vertex("A", n), 2 ** (n + 1) - 2),
        (
            lambda: _dim_orbit_every_vertex("D", n),
            sum(weyl.coset_count(D(n), v) for v in D(n).vertices),
        ),
        (
            lambda: _dim_orbit_every_vertex("A", quiver.rank, "path"),
            quiver.positive_root_count() * quiver.rank,
        ),
    ]


def _dim_orbit_every_vertex(dfam, n, family="ppa"):
    argv = ["dim-orbit", "--family", family, "--type", dfam, "--rank", str(n), "--oracle"]
    return cli.cmd_dim_orbit(cli.build_parser().parse_args(argv))


@settings(max_examples=20, deadline=None)
@given(oracle_calls_over_budget())
def test_oracles_refuse_over_budget_before_any_work(calls):
    def work(*args, **kwargs):
        raise AssertionError("an oracle started work before its budget check")

    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (oracles, "interval_walk"),
            (oracles, "descent_distribution"),
            (oracles, "orbit_levels"),
            (oracles, "permutation_rows"),
            (oracles, "permutation_blocks"),
            (oracles, "even_signed_blocks"),
            (lattice, "rect_path_blocks"),
            (lattice, "corner_path_blocks"),
            (lattice, "sign_sequence_blocks"),
            (hereditary, "path_cartan"),
            (hereditary, "tau_orbit_vectors"),
        ):
            patch.setattr(module, name, work)
        for call, estimate in calls:
            assert estimate > ORACLE_BUDGET
            with pytest.raises(RankTooLarge, match=f"visits {estimate:,} elements"):
                call()


def test_oracle_flag_routes_every_family():
    assert oracles.eulerian(A(4)) == eulerian_poly(A(4))
    assert oracles.eulerian(D(4)) == eulerian_poly(D(4))
    assert oracles.narayana(parse_union("A2xA2")) == narayana_poly(
        parse_union("A2xA2")
    )
