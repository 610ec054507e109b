import re
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest

from taupoly import oracles
from taupoly.dynkin import (
    DiagramUnion,
    DynkinDiagram,
    _star_diagram,
    cartan_determinant,
    delete_vertex,
    parse_diagram,
    parse_union,
    weight_height,
)
from taupoly.errors import ConsistencyError, UsageError


def u(text):
    return parse_union(text)


def test_deletion_lists_for_e_family():
    # deleting vertex l of E_n, for l = 1..n
    expected_e6 = ["D5", "A1xA4", "A1xA2xA2", "A5", "A1xA4", "D5"]
    expected_e7 = ["D6", "A1xA5", "A1xA2xA3", "A6", "A2xA4", "A1xD5", "E6"]
    expected_e8 = ["D7", "A1xA6", "A1xA2xA4", "A7", "A3xA4", "A2xD5", "A1xE6", "E7"]
    for n, expected in ((6, expected_e6), (7, expected_e7), (8, expected_e8)):
        diagram = DynkinDiagram("E", n)
        got = [delete_vertex(diagram, ell) for ell in range(1, n + 1)]
        assert got == [u(text) for text in expected]


def test_deletion_type_a():
    a5 = DynkinDiagram("A", 5)
    assert delete_vertex(a5, 1) == u("A4")
    assert delete_vertex(a5, 3) == u("A2xA2")
    assert delete_vertex(DynkinDiagram("A", 1), 1) == DiagramUnion()


def test_deletion_type_d():
    d5 = DynkinDiagram("D", 5)
    assert delete_vertex(d5, 1) == u("A4")
    assert delete_vertex(d5, -1) == u("A4")
    # deleting the fork vertex isolates both short arms
    assert delete_vertex(d5, 2) == u("A1xA1xA2")
    assert delete_vertex(d5, 2).rank == 4
    # rank 3 remnant comes back as its path shape
    assert delete_vertex(d5, 3) == u("A3xA1")
    assert delete_vertex(d5, 4) == u("D4")
    d6 = DynkinDiagram("D", 6)
    assert delete_vertex(d6, 4) == u("D4xA1")
    assert delete_vertex(d6, 5) == u("D5")


def test_deletion_errors():
    with pytest.raises(UsageError, match="^A3 has no vertex 4$"):
        delete_vertex(DynkinDiagram("A", 3), 4)
    with pytest.raises(UsageError, match="^D4 has no vertex 4$"):
        delete_vertex(DynkinDiagram("D", 4), 4)  # D4 vertices are -1,1,2,3


def test_check_vertex_accepts_exactly_the_labels():
    for family, ranks in (("A", range(1, 10)), ("D", range(4, 10)), ("E", (6, 7, 8))):
        for n in ranks:
            d = DynkinDiagram(family, n)
            for ell in range(-3, n + 3):
                if ell in d.vertices:
                    d.check_vertex(ell)
                else:
                    with pytest.raises(UsageError, match=f"^{d} has no vertex {ell}$"):
                        d.check_vertex(ell)


def test_rank_of_unions():
    assert DiagramUnion().rank == 0
    assert u("A2xA1xA2").rank == 5
    assert delete_vertex(DynkinDiagram("E", 6), 3).rank == 5


def test_vertices_and_edges():
    a4 = DynkinDiagram("A", 4)
    assert a4.vertices == (1, 2, 3, 4)
    assert a4.edges == ((1, 2), (2, 3), (3, 4))
    d4 = DynkinDiagram("D", 4)
    assert set(d4.vertices) == {-1, 1, 2, 3}
    assert set(d4.edges) == {(1, 2), (-1, 2), (2, 3)}
    e6 = DynkinDiagram("E", 6)
    assert set(e6.edges) == {(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)}
    e8 = DynkinDiagram("E", 8)
    assert len(e8.edges) == 7


def test_group_orders_and_root_counts():
    assert DynkinDiagram("A", 4).group_order() == 120
    assert DynkinDiagram("D", 5).group_order() == 1920
    assert DynkinDiagram("E", 6).group_order() == 51840
    assert DynkinDiagram("E", 7).group_order() == 2903040
    assert DynkinDiagram("E", 8).group_order() == 696729600
    assert DynkinDiagram("A", 4).positive_root_count() == 10
    assert DynkinDiagram("D", 6).positive_root_count() == 30
    assert [DynkinDiagram("E", n).positive_root_count() for n in (6, 7, 8)] == [36, 63, 120]
    # the invariants read off the degrees equal the classical closed forms
    for n in range(1, 61):
        a = DynkinDiagram("A", n)
        assert a.group_order() == factorial(n + 1)
        assert a.positive_root_count() == n * (n + 1) // 2
        assert a.coxeter_number() == n + 1
        assert a.catalan_count() == comb(2 * n + 2, n + 1) // (n + 2)
    for n in range(4, 61):
        d = DynkinDiagram("D", n)
        assert d.group_order() == 2 ** (n - 1) * factorial(n)
        assert d.positive_root_count() == n * (n - 1)
        assert d.coxeter_number() == 2 * n - 2
        assert d.catalan_count() == (3 * n - 2) * comb(2 * n - 1, n - 1) // (2 * n - 1)


def test_coxeter_numbers():
    assert DynkinDiagram("A", 5).coxeter_number() == 6
    assert DynkinDiagram("D", 4).coxeter_number() == 6
    assert DynkinDiagram("E", 8).coxeter_number() == 30
    assert [DynkinDiagram("E", n).catalan_count() for n in (6, 7, 8)] == [833, 4160, 25080]


def test_parse():
    assert parse_diagram("a5") == DynkinDiagram("A", 5)
    assert parse_diagram(" E7 ") == DynkinDiagram("E", 7)
    assert parse_union("A2xA1xA2").rank == 5
    assert parse_union("d4*a1") == DiagramUnion((DynkinDiagram("D", 4), DynkinDiagram("A", 1)))
    assert parse_union("empty") == DiagramUnion()
    unparsed = "cannot parse diagram {!r}; expected like A5, D6, E7".format
    for bad, message in (
        ("X9", unparsed("X9")),
        ("A0", "A_n needs n >= 1, got 0"),
        ("D3", "D_n needs n >= 4 as a diagram, got 3"),
        ("E5", "E_n needs n in {6,7,8}, got 5"),
        ("E9", "E_n needs n in {6,7,8}, got 9"),
        ("5A", unparsed("5A")),
        ("", unparsed("")),
    ):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            parse_diagram(bad)


def test_a_union_with_a_blank_part_names_the_whole_text():
    for bad in ("D4x", "xA2", "A2xxA3", "A2x xA3", "A1*"):
        message = f"cannot parse diagram union {bad!r}; expected like A2xA1xD4"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            parse_union(bad)
    # a part that is not blank is named alone
    message = "cannot parse diagram 'B3'; expected like A5, D6, E7"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        parse_union("A2xB3")


def test_union_is_order_insensitive():
    assert u("A1xD4") == u("D4xA1")
    assert hash(u("A1xD4")) == hash(u("D4xA1"))


def test_every_deletion_classifies():
    diagrams = (
        [DynkinDiagram("A", n) for n in range(1, 10)]
        + [DynkinDiagram("D", n) for n in range(4, 10)]
        + [DynkinDiagram("E", n) for n in (6, 7, 8)]
    )
    for diagram in diagrams:
        for v in diagram.vertices:
            union = delete_vertex(diagram, v)
            assert union.rank == diagram.rank - 1


def _diagrams(a_ranks, d_ranks):
    return (
        [DynkinDiagram("A", n) for n in a_ranks]
        + [DynkinDiagram("D", n) for n in d_ranks]
        + [DynkinDiagram("E", n) for n in (6, 7, 8)]
    )


def _components_by_search(diagram, ell):
    """Vertex sets of the components of the diagram minus ell, from its
    edges alone."""
    adjacency = {v: set() for v in diagram.vertices if v != ell}
    for a, b in diagram.edges:
        if ell not in (a, b):
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    for v in adjacency:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in adjacency[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        yield sorted(comp)


def test_deletion_matches_a_component_search():
    # (size, positive roots of the induced Cartan matrix) tells the A, D
    # and E components of these ranks apart
    for diagram in _diagrams(range(1, 13), range(4, 13)):
        for ell in diagram.vertices:
            found = Counter()
            for comp in _components_by_search(diagram, ell):
                index = {v: i for i, v in enumerate(comp)}
                cartan = 2 * np.eye(len(comp), dtype=np.int64)
                for a, b in diagram.edges:
                    if a in index and b in index:
                        cartan[index[a], index[b]] = cartan[index[b], index[a]] = -1
                found[len(comp), len(oracles.positive_roots(cartan))] += 1
            pieces = Counter((c.rank, c.positive_root_count()) for c in delete_vertex(diagram, ell))
            assert found == pieces, (diagram, ell)


def test_weight_heights_solve_every_cartan_row():
    # the heights scaled by det C: sum_j C[i][j] H_j = 2 H_i - (the
    # neighbours' H) = det C
    for diagram in _diagrams(range(1, 61), range(4, 61)):
        height = {v: weight_height(diagram, v) for v in diagram.vertices}
        residual = {v: 2 * height[v] for v in diagram.vertices}
        for a, b in diagram.edges:
            residual[a] -= height[b]
            residual[b] -= height[a]
        assert set(residual.values()) == {cartan_determinant(diagram)}, diagram


def _bareiss_determinant(matrix):
    """Fraction-free Gaussian elimination, every division exact.  The
    pivots are leading principal minors, all positive for a Cartan
    matrix, so no row is swapped."""
    m = [list(row) for row in matrix]
    previous = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return m[-1][-1]


def test_cartan_determinant_from_the_arms_is_the_determinant():
    for diagram in _diagrams(range(1, 21), range(4, 21)):
        cartan = oracles.cartan_matrix(diagram).tolist()
        assert cartan_determinant(diagram) == _bareiss_determinant(cartan), diagram


@pytest.mark.parametrize("arms", [(2, 2, 2), (1, 3, 3), (1, 2, 5)])
def test_a_star_outside_a_d_e_is_an_internal_error(arms):
    with pytest.raises(ConsistencyError, match="not a Dynkin diagram"):
        _star_diagram(arms)
