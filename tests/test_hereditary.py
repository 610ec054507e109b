import re
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taupoly import formulas, hereditary, oracles
from taupoly.dynkin import DynkinDiagram
from taupoly.errors import ConsistencyError, UsageError
from taupoly.formulas import PATH, golden_table, h_polynomial
from taupoly.hereditary import (
    OrientedQuiver,
    disjoint_union_d_check,
    euler_form,
    orientations,
    path_cartan,
    tau_orbit_totals,
    tau_rigid_complex,
    translate_orbits,
)
from taupoly.oracles import positive_roots
from taupoly.polynomials import ONE, Polynomial

from reference import path_cartan_by_reachability


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def two_orientations(d):
    """The stored orientation and a bipartite one, found by colouring the
    diagram from its edges: the sources are the vertices an even distance
    from the branch vertex, or from the first vertex of A_n.  That is the
    orientation ``tau_orbit_totals`` sweeps."""
    neighbours = {v: [] for v in d.vertices}
    for a, b in d.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    root = next((v for v in d.vertices if len(neighbours[v]) == 3), d.vertices[0])
    colour, queue = {root: 0}, [root]
    for v in queue:
        for w in neighbours[v]:
            if w not in colour:
                colour[w] = 1 - colour[v]
                queue.append(w)
    return ("1" * len(d.edges), "".join("10"[colour[a]] for a, _ in d.edges))


def sweep(q):
    """The steps of ``translate_orbits(q)``, cut off once they pass the
    positive roots, so a broken step fails instead of running forever."""
    steps, count, roots = [], 0, len(roots_of(q))
    for owner, rows in translate_orbits(q):
        steps.append((owner, rows))
        count += len(rows)
        assert count <= roots, q
    return steps


def sweep_totals(q):
    """The translate-orbit total at each quiver vertex, summed from one sweep."""
    totals = dict.fromkeys(q.vertices, 0)
    for owner, rows in sweep(q):
        for k, total in zip(owner.tolist(), rows.sum(axis=1).tolist()):
            totals[q.vertices[k]] += total
    return totals


def every_orientation():
    """Every quiver on A1-A5, D4 and D5."""
    for diagram in [DynkinDiagram("A", n) for n in range(1, 6)] + [
        DynkinDiagram("D", 4),
        DynkinDiagram("D", 5),
    ]:
        for orientation in orientations(diagram):
            yield diagram, OrientedQuiver.from_diagram(diagram, orientation)


def roots_of(q):
    arrows = q.arrow_counts
    return positive_roots(2 * np.eye(q.rank, dtype=np.int64) - arrows - arrows.T)


def hom_dim(m, n, q):
    """dim Hom(M, N) for indecomposables: the Euler form where Ext vanishes."""
    return max(0, int(euler_form(m, n, q)))


def ext(m, n, q):
    """dim Ext^1(M, N) = max(0, -<dim M, dim N>) for indecomposables, the
    rule the complex's build applies; the matrix of all pairs for stacks."""
    return np.maximum(0, -euler_form(m, n, q))


def test_worked_example_rank_three():
    complex_ = tau_rigid_complex(OrientedQuiver.line(3))
    assert complex_.f_polynomial() == Polynomial([14, 21, 9, 1])
    assert complex_.h_polynomial() == Polynomial([1, 6, 6, 1])
    assert complex_.d_polynomial() == Polynomial([46, 46, 10])
    assert complex_.maximal_face_count == 14
    assert len(complex_.compatible) == 3 * 4 // 2 + 3


def test_complex_is_its_roots_and_compatibility_matrix():
    q = OrientedQuiver.line(3, "10")
    complex_ = tau_rigid_complex(q)
    assert complex_.rank == 3
    assert sorted(map(tuple, complex_.roots.tolist())) == sorted(roots_of(q))
    assert complex_.compatible.shape == (6 + 3, 6 + 3)
    assert not complex_.roots.flags.writeable and not complex_.compatible.flags.writeable
    # every maximal face has rank vertices, so they are the faces of that size
    assert complex_.face_counts == (1, 9, 21, 14)
    assert complex_.maximal_face_count == complex_.face_counts[3]
    # the shifted projectives come last, pairwise compatible, each of dimension 0
    shifted = complex_.compatible[6:, 6:]
    assert (shifted == ~np.eye(3, dtype=bool)).all()
    assert complex_.dims == [sum(root) for root in complex_.roots.tolist()] + [0] * 3
    assert sum(complex_.dims) == complex_.face_dim_sums[1] == 10


def test_rank_one():
    complex_ = tau_rigid_complex(OrientedQuiver.line(1))
    assert complex_.f_polynomial() == Polynomial([2, 1])
    assert complex_.d_polynomial() == ONE
    # the two vertices are incompatible
    assert complex_.maximal_face_count == 2


def test_rank_two_both_orientations():
    for orientation in ("1", "0"):
        complex_ = tau_rigid_complex(OrientedQuiver.line(2, orientation))
        assert complex_.d_polynomial() == Polynomial([8, 4])


def test_hom_directions_fixed_by_projectives():
    q = OrientedQuiver.line(3)  # 1 -> 2 -> 3
    # the smaller projective embeds in the bigger one; the quotient
    # direction vanishes in this representation convention
    assert hom_dim((0, 1, 1), (1, 1, 1), q) == 1
    assert hom_dim((1, 1, 1), (0, 1, 1), q) == 0
    assert hom_dim((1, 0, 0), (0, 0, 1), q) == 0
    # morphisms out of a projective see exactly the support vertex
    projectives = path_cartan(q)
    assert projectives.tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    for k in range(3):
        for root in roots_of(q):
            assert hom_dim(projectives[k], root, q) == root[k]


def test_projectives_read_off_one_coordinate():
    # <P_l, alpha> = alpha_l for every vertex and root, every type
    for diagram in (
        DynkinDiagram("A", 5),
        DynkinDiagram("D", 5),
        DynkinDiagram("E", 6),
        DynkinDiagram("E", 8),
    ):
        for orientation in two_orientations(diagram):
            q = OrientedQuiver.from_diagram(diagram, orientation)
            roots = np.array(roots_of(q))
            forms = euler_form(path_cartan(q), roots, q)
            assert (forms == roots.T).all(), (diagram, orientation)


def test_flipped_euler_form_raises(monkeypatch):
    self_check = "^Euler form failed the root and projective self-check$"
    # the form is checked on every call, its face counts memoised or not
    q = OrientedQuiver.from_diagram(DynkinDiagram("D", 4), "101")
    assert tau_rigid_complex(q).maximal_face_count == 50
    original = hereditary.euler_form
    # x (I - A^T) y^T, the form of the opposite quiver
    monkeypatch.setattr(hereditary, "euler_form", lambda x, y, q: original(y, x, q).T)
    with pytest.raises(ConsistencyError, match=self_check):
        tau_rigid_complex(q)
    # a negated form fails on <alpha, alpha> = 1 even without arrows
    monkeypatch.setattr(hereditary, "euler_form", lambda x, y, q: -original(x, y, q))
    with pytest.raises(ConsistencyError, match=self_check):
        tau_rigid_complex(OrientedQuiver.line(1))


def test_both_impurity_branches_raise(monkeypatch):
    q = OrientedQuiver.line(3)
    # every module compatible with every other: a 6-clique in a rank-3 complex
    monkeypatch.setattr(hereditary, "_root_forms", lambda q, roots: np.zeros((6, 6), int))
    with pytest.raises(ConsistencyError, match="^clique larger than the ambient rank$"):
        tau_rigid_complex(q)
    # no two modules compatible: the root (1,1,0) with P3[1] is a maximal edge
    monkeypatch.setattr(hereditary, "_root_forms", lambda q, roots: -np.ones((6, 6), int))
    with pytest.raises(
        ConsistencyError, match="^complex is not pure: maximal face below full rank$"
    ):
        tau_rigid_complex(q)


def reference_census(n, edges, dims, max_size):
    """Every clique listed as a set, grown one later vertex at a time."""
    neighbors = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    counts, dim_sums, maximal = ([0] * (max_size + 1) for _ in range(3))
    level = [frozenset()]
    while level:
        size = len(next(iter(level)))
        if size > max_size:
            return None
        grown = set()
        for clique in level:
            common = set(range(n)).intersection(*(neighbors[v] for v in clique)) - clique
            counts[size] += 1
            dim_sums[size] += sum(dims[v] for v in clique)
            maximal[size] += not common
            grown.update(clique | {v} for v in common if v > max(clique, default=-1))
        level = grown
    return counts, dim_sums, maximal


@st.composite
def census_graphs(draw):
    """A small dense graph, or a sparse one of 65-130 vertices with a
    planted clique so that both uint64 words of a mask hold bits; random
    dims and a max size at most one below or two above the clique number."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 10))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [pair for pair in pairs if draw(st.booleans())]
    else:
        n = draw(st.integers(65, 130))
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        planted = draw(st.lists(vertex, max_size=7, unique=True))
        edges += [(a, b) for a in planted for b in planted if a < b]
    dims = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    return n, edges, dims, draw(st.integers(-1, 2))


@settings(max_examples=60, deadline=None)
@given(census_graphs())
@example((1, [], [1], -1))  # max size 0: the lone vertex is already too large
def test_clique_census_matches_a_set_listing(case):
    n, edges, dims, slack = case
    counts = reference_census(n, edges, dims, n)[0]
    max_size = max(0, max(k for k, count in enumerate(counts) if count) + slack)
    compatible = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        compatible[a, b] = compatible[b, a] = a != b
    want = reference_census(n, edges, dims, max_size)
    # one row per chunk as well: every level then crosses chunk boundaries
    for bits_per_chunk in (1, oracles._CENSUS_BITS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "_CENSUS_BITS", bits_per_chunk)
            if want is None:
                with pytest.raises(ConsistencyError, match="^clique larger than the ambient rank$"):
                    oracles._clique_census(compatible, dims, max_size)
            else:
                assert oracles._clique_census(compatible, dims, max_size) == want


def test_antichain_census_is_the_same_in_any_chunk_size(monkeypatch):
    a10 = DynkinDiagram("A", 10)
    default = oracles.narayana_oracle(a10)
    monkeypatch.setattr(oracles, "_CENSUS_BITS", 1)
    assert oracles.narayana_oracle(a10) == default


def test_interval_modules_are_bricks():
    for orientation in orientations(DynkinDiagram("A", 4)):
        q = OrientedQuiver.line(4, orientation)
        roots = roots_of(q)
        # type A: the roots are the intervals, one module per interval
        intervals = {
            tuple(int(i <= k <= j) for k in range(4)) for i in range(4) for j in range(i, 4)
        }
        assert set(roots) == intervals
        for root in roots:
            assert hom_dim(root, root, q) == 1
            assert ext(root, root, q) == 0


def test_ext_on_the_two_vertex_quiver():
    q = OrientedQuiver.line(2, "1")  # 1 -> 2
    assert ext((1, 0), (0, 1), q) == 1  # the nonsplit extension is (1,1)
    assert ext((0, 1), (1, 0), q) == 0
    far = OrientedQuiver.line(4, "111")
    assert ext((1, 0, 0, 0), (0, 0, 1, 1), far) == 0
    assert ext((0, 0, 1, 1), (1, 0, 0, 0), far) == 0
    # stacks of vectors give the matrix of all pairs
    simples = np.eye(2, dtype=np.int64)
    assert ext(simples, simples, q).tolist() == [[0, 1], [0, 0]]


def test_orientation_independence_matches_closed_forms():
    for n in range(1, 5):
        expected = {
            kind: getattr(formulas, f"{kind}_polynomial")(PATH, DynkinDiagram("A", n))
            for kind in "dfh"
        }
        for orientation in orientations(DynkinDiagram("A", n)):
            complex_ = tau_rigid_complex(OrientedQuiver.line(n, orientation))
            for kind, want in expected.items():
                assert getattr(complex_, f"{kind}_polynomial")() == want


def test_purity_and_counts():
    for n in range(1, 6):
        complex_ = tau_rigid_complex(OrientedQuiver.line(n))
        assert complex_.maximal_face_count == catalan(n + 1)
        assert len(complex_.compatible) == n * (n + 1) // 2 + n
        # face polynomial evaluates to the total face count at 1
        assert complex_.f_polynomial()(1) == sum(complex_.face_counts)


def test_h_polynomial_is_narayana():
    for n in range(1, 6):
        complex_ = tau_rigid_complex(OrientedQuiver.line(n))
        assert complex_.h_polynomial() == h_polynomial(PATH, DynkinDiagram("A", n))


def test_links():
    complex_ = tau_rigid_complex(OrientedQuiver.line(3))
    by_vector = {tuple(root): i for i, root in enumerate(complex_.roots.tolist())}
    # link of the big projective is the rank-2 complex of the quotient quiver
    link = complex_.link_f_polynomial(by_vector[(1, 1, 1)])
    assert link == tau_rigid_complex(OrientedQuiver.line(2)).f_polynomial()
    # dimension-weighted link decomposition
    total = Polynomial()
    for vector, idx in by_vector.items():
        total = total + sum(vector) * complex_.link_f_polynomial(idx)
    assert total == complex_.d_polynomial()
    # the first shifted projective follows the six modules
    with pytest.raises(UsageError, match="^vertex 6 is not a module vertex$"):
        complex_.link_f_polynomial(6)


def test_link_in_rank_one():
    complex_ = tau_rigid_complex(OrientedQuiver.line(1))
    assert complex_.roots.tolist() == [[1]]
    assert complex_.link_f_polynomial(0) == ONE


def test_disjoint_union_product_rule():
    q1 = OrientedQuiver.line(1)
    q2 = OrientedQuiver.line(2)
    assert disjoint_union_d_check(q1, q1)
    assert disjoint_union_d_check(q1, q2)
    assert disjoint_union_d_check(q2, q2)
    union = q1.disjoint_with(q1)
    assert tau_rigid_complex(union).d_polynomial() == Polynomial([4, 2])


def test_complex_matches_engine_on_d_and_e():
    quivers = [
        (DynkinDiagram(family, n), orientation)
        for family, n in (("D", 4), ("D", 5), ("E", 6))
        for orientation in orientations(DynkinDiagram(family, n))
    ] + [
        (DynkinDiagram(family, n), orientation)
        for family, n in (("D", 6), ("D", 7), ("D", 8), ("E", 7), ("E", 8))
        for orientation in two_orientations(DynkinDiagram(family, n))
    ]
    for diagram, orientation in quivers:
        complex_ = tau_rigid_complex(OrientedQuiver.from_diagram(diagram, orientation))
        for kind in "fhd":
            engine = getattr(formulas, f"{kind}_polynomial")(PATH, diagram)
            assert getattr(complex_, f"{kind}_polynomial")() == engine, (diagram, orientation)
        assert complex_.maximal_face_count == diagram.catalan_count()
        assert len(complex_.compatible) == diagram.positive_root_count() + diagram.rank


def test_complex_reproduces_tables_5_and_6():
    for table, family, ranks in ((5, "D", range(4, 9)), (6, "E", (6, 7, 8))):
        golden = golden_table(table)
        for n in ranks:
            d = tau_rigid_complex(OrientedQuiver.from_diagram(DynkinDiagram(family, n)))
            d = d.d_polynomial()
            assert tuple(d.coefficient(n - 1 - j) for j in range(n)) == golden[n]


def test_complex_rank_cap():
    with pytest.raises(UsageError, match="^complex enumeration capped at rank 8$"):
        tau_rigid_complex(OrientedQuiver.line(9))


# A1-A6, D4, D5 and E6: 119 quivers over all their orientations
SMALL_DIAGRAMS = [DynkinDiagram("A", n) for n in range(1, 7)] + [
    DynkinDiagram(*fn) for fn in (("D", 4), ("D", 5), ("E", 6))
]


def _counted_censuses(monkeypatch):
    """The argument tuples of every census ``tau_rigid_complex`` runs from
    here on, counted from empty memos."""
    census, calls = hereditary._clique_census, []

    def counted(*args):
        calls.append(args)
        return census(*args)

    monkeypatch.setattr(hereditary, "_clique_census", counted)
    hereditary._FACE_COUNTS.clear()
    return calls


def test_a_quiver_and_its_opposite_share_one_census(monkeypatch):
    # Ext^1 over KQ^op is Ext^1 over KQ transposed: the same roots and graph
    calls = _counted_censuses(monkeypatch)
    for diagram in SMALL_DIAGRAMS:
        for orientation in orientations(diagram):
            flipped = orientation.translate(str.maketrans("01", "10"))
            q = OrientedQuiver.from_diagram(diagram, orientation)
            op = OrientedQuiver.from_diagram(diagram, flipped)
            assert sorted(op.arrows) == sorted((b, a) for a, b in q.arrows)
            hereditary._FACE_COUNTS.clear()
            c_op = tau_rigid_complex(op)
            calls.clear()
            c = tau_rigid_complex(q)
            assert not calls, (diagram, orientation)
            assert c.roots.shape == c_op.roots.shape, (diagram, orientation)
            assert c.roots.tobytes() == c_op.roots.tobytes(), (diagram, orientation)
            assert c.compatible.tobytes() == c_op.compatible.tobytes(), (diagram, orientation)
            assert (c.face_counts, c.face_dim_sums) == (c_op.face_counts, c_op.face_dim_sums)


def test_each_graph_is_counted_once(monkeypatch):
    # the 2^(n-1) orientations of A_n are max(1, 2^(n-2)) graphs, and the
    # flip of A_n leaves 1, 1, 2, 3, 6, 10 classes of them to count
    calls = _counted_censuses(monkeypatch)
    for n, classes in zip(range(1, 7), (1, 1, 2, 3, 6, 10)):
        counted_before = len(calls)
        graphs = {
            tau_rigid_complex(OrientedQuiver.line(n, orientation)).compatible.tobytes()
            for orientation in orientations(DynkinDiagram("A", n))
        }
        assert len(graphs) == max(1, 2 ** (n - 2)), n
        assert len(calls) - counted_before == classes, n
    assert len(calls) == len(hereditary._FACE_COUNTS)


SYMMETRIC_DIAGRAMS = [DynkinDiagram(*fn) for fn in (("A", 5), ("D", 4), ("D", 5), ("E", 6))]


def _symmetries(diagram):
    """Every automorphism of the diagram, by brute force, as the list of
    the images of the vertex indices."""
    adjacent = oracles.cartan_matrix(diagram) < 0
    every = permutations(range(diagram.rank))
    return [list(s) for s in every if (adjacent[np.ix_(s, s)] == adjacent).all()]


def _moved(q, s):
    """The quiver with each arrow a -> b moved to s(a) -> s(b)."""
    image = {v: q.vertices[s[i]] for i, v in enumerate(q.vertices)}
    return OrientedQuiver(q.vertices, tuple((image[a], image[b]) for a, b in q.arrows))


@pytest.mark.parametrize("diagram", SYMMETRIC_DIAGRAMS, ids=str)
def test_a_diagram_symmetry_relabels_the_graph(diagram):
    # D4's symmetries include 3-cycles, which tell s from its inverse
    symmetries = _symmetries(diagram)
    assert len(symmetries) == (6 if diagram == DynkinDiagram("D", 4) else 2)
    cartan = tuple(map(tuple, oracles.cartan_matrix(diagram).tolist()))
    roots, relabellings = hereditary._roots_and_relabellings(cartan)
    assert not any(a.flags.writeable for a in (roots, *relabellings.values()))
    assert sorted(map(list, relabellings)) == symmetries
    for orientation in orientations(diagram):
        q = OrientedQuiver.from_diagram(diagram, orientation)
        c = tau_rigid_complex(q)
        for s in symmetries:
            moved = tau_rigid_complex(_moved(q, s))
            p = relabellings[tuple(s)]
            assert moved.roots.tobytes() == c.roots.tobytes(), (orientation, s)
            assert moved.compatible.tobytes() == c.compatible[p][:, p].tobytes(), (orientation, s)


def test_a_symmetric_quiver_gets_its_own_complex():
    # after Q, sQ shares Q's face counts but holds its own roots and graph
    for diagram in SYMMETRIC_DIAGRAMS:
        for orientation in orientations(diagram):
            q = OrientedQuiver.from_diagram(diagram, orientation)
            for s in _symmetries(diagram)[1:]:  # the identity comes first
                hereditary._FACE_COUNTS.clear()
                fresh = tau_rigid_complex(_moved(q, s))
                hereditary._FACE_COUNTS.clear()
                tau_rigid_complex(q)
                c = tau_rigid_complex(_moved(q, s))
                assert c.roots.tobytes() == fresh.roots.tobytes(), (diagram, orientation, s)
                assert c.compatible.tobytes() == fresh.compatible.tobytes(), (diagram, orientation, s)
                assert (c.face_counts, c.face_dim_sums) == (fresh.face_counts, fresh.face_dim_sums)


def test_a_shared_complex_counts_its_own_graph():
    for diagram in (DynkinDiagram("A", 5), DynkinDiagram("D", 5)):
        for orientation in orientations(diagram):
            c = tau_rigid_complex(OrientedQuiver.from_diagram(diagram, orientation))
            counts, dim_sums, _ = oracles._clique_census(c.compatible, c.dims, c.rank)
            assert tuple(counts) == c.face_counts, (diagram, orientation)
            assert tuple(dim_sums) == c.face_dim_sums, (diagram, orientation)


def test_path_cartan_counts_paths():
    q = OrientedQuiver.line(3, "10")  # 1 -> 2 <- 3
    C = path_cartan(q)
    assert C.tolist() == [[1, 1, 0], [0, 1, 0], [0, 1, 1]]


def test_path_cartan_matches_reachability():
    # the all-1 line A_n has a path of n - 1 arrows, the longest there is
    for diagram in SMALL_DIAGRAMS:
        for orientation in orientations(diagram):
            q = OrientedQuiver.from_diagram(diagram, orientation)
            C = path_cartan(q)
            assert C.dtype == np.int64
            assert C.tolist() == path_cartan_by_reachability(q), (diagram, orientation)
    for n in (16, 17, 33):  # longest paths of 2^k - 1 and 2^k arrows
        q = OrientedQuiver.line(n)
        assert path_cartan(q).tolist() == path_cartan_by_reachability(q), n


def test_tau_orbit_type_a():
    for orientation in ("111", "010", "001"):
        q = OrientedQuiver.line(4, orientation)
        assert list(sweep_totals(q).values()) == [4, 6, 6, 4]


def test_tau_orbit_type_d_and_e():
    d4 = DynkinDiagram("D", 4)
    assert tau_orbit_totals(d4) == {-1: 6, 1: 6, 2: 10, 3: 6}
    e6 = DynkinDiagram("E", 6)
    assert list(tau_orbit_totals(e6).values()) == [16, 30, 42, 22, 30, 16]


def test_tau_orbit_total_is_checked_against_the_budget_first(monkeypatch):
    # N positive roots of n entries each: A200 has 20,100 * 200, A300 45,150 * 300
    a200, a300 = DynkinDiagram("A", 200), DynkinDiagram("A", 300)
    assert tau_orbit_totals(a200)[100] == formulas.orbit_dim_total(PATH, a200, 100)
    monkeypatch.setattr(hereditary, "translate_orbits", None)  # no work may start
    refusal = (
        "A300 translate orbits (45,150 modules of 300 entries) visits 13,545,000 elements,"
        " over the oracle budget of 10,000,000"
    )
    with pytest.raises(UsageError, match=f"^{re.escape(refusal)}$"):
        tau_orbit_totals(a300)


def test_path_cartan_runs_once_per_sweep(monkeypatch):
    calls = []

    def counting_path_cartan(q):
        calls.append(q)
        return path_cartan(q)

    monkeypatch.setattr(hereditary, "path_cartan", counting_path_cartan)
    for d in (DynkinDiagram("A", 12), DynkinDiagram("E", 8)):
        calls.clear()
        totals = tau_orbit_totals(d)
        assert totals == {ell: formulas.orbit_dim_total(PATH, d, ell) for ell in d.vertices}
        assert len(calls) == 1 and calls[0].vertices == d.vertices
        # the alternating orientation: no vertex is both a tail and a head
        tails, heads = zip(*calls[0].arrows)
        assert not set(tails) & set(heads)


def test_translate_orbits_step_by_the_inverse_coxeter_matrix():
    for diagram, q in every_orientation():
        C = path_cartan(q)
        phi_inv = -(np.eye(q.rank, dtype=np.int64) - q.arrow_counts.T) @ C
        steps = sweep(q)
        for (owner, rows), (next_owner, next_rows) in zip(steps, steps[1:]):
            image = rows @ phi_inv
            live = (image >= 0).all(axis=1) & (image > 0).any(axis=1)
            assert (owner[live] == next_owner).all(), q
            assert (image[live] == next_rows).all(), q
        last = steps[-1][1] @ phi_inv
        assert ((last <= 0).all(axis=1) & (last < 0).any(axis=1)).all(), q
        # the preprojectives are all the indecomposables, each once
        seen = [tuple(row) for _, rows in steps for row in rows.tolist()]
        assert len(seen) == len(set(seen)) == diagram.positive_root_count(), q
        assert set(seen) == set(map(tuple, roots_of(q))), q


def test_tau_orbit_totals_refuse_reversed_rounds(monkeypatch):
    # reversed rounds make the translate, not its inverse: a projective
    # turns negative at once and the sweep falls short of N rows
    rounds = hereditary._reflection_rounds
    monkeypatch.setattr(hereditary, "_reflection_rounds", lambda q, C: rounds(q, C)[::-1])
    for family, rank in (("A", 2), ("A", 5), ("D", 5), ("E", 6)):
        # the projectives alone: each turns negative at its first step
        d = DynkinDiagram(family, rank)
        held = f"^{d} translate orbits held {rank} of {d.positive_root_count()} positive roots$"
        with pytest.raises(ConsistencyError, match=held):
            tau_orbit_totals(d)
    monkeypatch.undo()
    assert tau_orbit_totals(DynkinDiagram("A", 5)) == {1: 5, 2: 8, 3: 9, 4: 8, 5: 5}


def test_tau_orbit_totals_stop_an_endless_sweep(monkeypatch):
    def endless(q):
        while True:
            yield np.arange(1), np.ones((1, q.rank), dtype=np.int64)

    monkeypatch.setattr(hereditary, "translate_orbits", endless)
    passed = "^E6 translate orbits passed its 36 positive roots$"
    with pytest.raises(ConsistencyError, match=passed):
        tau_orbit_totals(DynkinDiagram("E", 6))


def test_a_row_leaving_with_a_positive_entry_raises(monkeypatch):
    # (1, 2) is no root of A2: one inverse translate takes it to (1, -1)
    monkeypatch.setattr(hereditary, "path_cartan", lambda q: np.array([[1, 1], [1, 2]]))
    with pytest.raises(
        ConsistencyError, match="^orbit left the positive orthant without turning negative$"
    ):
        sweep(OrientedQuiver.line(2))


def test_tau_orbit_enumerates_each_root_once():
    for diagram in (
        DynkinDiagram("A", 5),
        DynkinDiagram("D", 5),
        DynkinDiagram("E", 6),
        DynkinDiagram("E", 8),
    ):
        for orientation in two_orientations(diagram):
            q = OrientedQuiver.from_diagram(diagram, orientation)
            seen = [tuple(row) for _, rows in sweep(q) for row in rows.tolist()]
            assert len(seen) == len(set(seen)) == diagram.positive_root_count()
            # the preprojectives are all the indecomposables: the
            # complex's module vertices
            assert set(seen) == set(roots_of(q))
            total = sum(sum(v) for v in seen)
            if diagram.family == "A":
                n = diagram.rank
                assert total == n * (n + 1) * (n + 2) // 6
            if diagram.family == "D":
                n = diagram.rank
                assert total == n * (n - 1) * (2 * n - 1) // 3


@st.composite
def oriented_diagrams(draw):
    """A connected A, D or E diagram of rank at most 7 and an orientation
    string for its edges."""
    family = draw(st.sampled_from("ADE"))
    rank = draw(st.integers({"A": 1, "D": 4, "E": 6}[family], 7))
    diagram = DynkinDiagram(family, rank)
    edges = len(diagram.edges)
    return diagram, draw(st.text("01", min_size=edges, max_size=edges))


@settings(max_examples=50, deadline=None)
@given(oriented_diagrams())
def test_random_orientations_match_the_engine(case):
    diagram, orientation = case
    q = OrientedQuiver.from_diagram(diagram, orientation)
    complex_ = tau_rigid_complex(q)
    assert complex_.f_polynomial() == formulas.f_polynomial(PATH, diagram)
    assert complex_.h_polynomial() == formulas.h_polynomial(PATH, diagram)
    assert complex_.d_polynomial() == formulas.d_polynomial(PATH, diagram)
    assert sweep_totals(q) == {
        ell: formulas.orbit_dim_total(PATH, diagram, ell) for ell in diagram.vertices
    }


def test_tau_orbit_orientation_independent_totals():
    for diagram, q in every_orientation():
        engine = {ell: formulas.orbit_dim_total(PATH, diagram, ell) for ell in diagram.vertices}
        assert sweep_totals(q) == tau_orbit_totals(diagram) == engine, q
