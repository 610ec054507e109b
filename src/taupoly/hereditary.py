"""Brute-force ground truth for path algebras of Dynkin quivers.

Two independent oracles live here, for any Dynkin quiver of any
orientation (and disjoint unions of them); ``orientations`` lists every
orientation of a diagram.  Neither is called by the engine.

* The full compatibility complex of rigid pairs, built from dimension
  vectors alone.  The indecomposables are the positive roots of the
  underlying graph (Gabriel).  The Auslander-Reiten quiver is directed,
  so between indecomposables at most one of Hom(M, N) and Ext^1(M, N) is
  nonzero, and Ext^1(M, N) = max(0, -<dim M, dim N>) with the Euler form
  <x, y> = x (I - A) y^T, A counting arrows.  A shifted projective
  P_l[1] is compatible with M exactly when M_l = 0 (Adachi-Iyama-Reiten).
  Every build pins the Euler form against the projectives read off path
  counts: <alpha, alpha> = 1 for every root and <P_l, alpha> =
  alpha_l for every vertex l.  Face counts of the complex give the
  face-count polynomial, dimension-weighted face counts give the
  dimension polynomial, with no closed formula anywhere.  The faces are
  counted by ``oracles._clique_census``, the census that also counts the
  antichains of the root poset for the Narayana oracle: level by level
  in numpy, a face being its last vertex and the bitmask of the vertices
  compatible with all of it.  Over KQ^op, Ext^1(M, N) is Ext^1(N, M) over
  KQ, so Q and Q^op have one compatibility graph.  An automorphism of a
  connected underlying graph, moving the arrows of Q, relabels the roots
  and the shifted projectives of its graph, so one memo keyed by the
  graph up to a relabelling holds the face counts of both: the 127
  orientations of A1-A7 are 64 graphs and 43 censuses.  Every call still
  checks its quiver's Euler form and gets a fresh complex in its own
  order.

* The translate-orbit dimension sums: the dimension vectors of all the
  projectives move through their orbits at once by simple reflections,
  each changing one coordinate, so a sweep costs the N * n entries of the
  N positive roots, the count the oracle budget charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .dynkin import DynkinDiagram, _star
from .errors import ConventionError, ImpurityError, NotAModule, RankTooLarge, UsageError
from .errors import check_oracle_budget
from .oracles import _clique_census, positive_roots
from .polynomials import Polynomial


def orientations(d: DynkinDiagram) -> Iterator[str]:
    """Every orientation string of a diagram's edges, for
    ``OrientedQuiver.from_diagram``: character i is bit i of the counter."""
    edges = len(d.edges)
    for bits in range(1 << edges):
        yield "".join(str((bits >> i) & 1) for i in range(edges))


@dataclass(frozen=True)
class OrientedQuiver:
    """An acyclic orientation of a (union of) Dynkin diagram(s).

    Vertices are integers; arrows are (source, target) pairs.
    """

    vertices: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]

    @classmethod
    def line(cls, n: int, orientation: str | None = None) -> "OrientedQuiver":
        """Type A quiver on 1..n; orientation character i is '1' for the
        arrow i -> i+1 and '0' for i <- i+1.  Default: all '1'."""
        return cls.from_diagram(DynkinDiagram("A", n), orientation)

    @classmethod
    def from_diagram(cls, d: DynkinDiagram, orientation: str | None = None) -> "OrientedQuiver":
        """Orient a Dynkin diagram edge by edge; '1' keeps the stored
        (a, b) direction of each edge, '0' flips it."""
        edges = d.edges
        if orientation is None:
            orientation = "1" * len(edges)
        if len(orientation) != len(edges) or any(c not in "01" for c in orientation):
            raise UsageError(
                f"orientation for {d} needs {len(edges)} characters,"
                " each 1 (keep the edge's direction) or 0 (flip it)"
            )
        arrows = tuple(
            (a, b) if c == "1" else (b, a) for (a, b), c in zip(edges, orientation)
        )
        return cls(d.vertices, arrows)

    def disjoint_with(self, other: "OrientedQuiver") -> "OrientedQuiver":
        """Disjoint union, relabeling the second quiver above the first."""
        shift = (max(self.vertices) if self.vertices else 0) + 1 - min(other.vertices)
        verts = self.vertices + tuple(v + shift for v in other.vertices)
        arrows = self.arrows + tuple((a + shift, b + shift) for a, b in other.arrows)
        return OrientedQuiver(verts, arrows)

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def arrow_counts(self) -> np.ndarray:
        """Matrix A with A[i, j] the number of arrows from vertex i to
        vertex j, in vertex order: read-only, made once per quiver."""
        index = {v: k for k, v in enumerate(self.vertices)}
        counts = np.zeros((self.rank, self.rank), dtype=np.int64)
        for a, b in self.arrows:
            counts[index[a], index[b]] += 1
        counts.flags.writeable = False
        return counts


# ---------------------------------------------------------------------------
# Projectives and the Euler form on dimension vectors
# ---------------------------------------------------------------------------


def path_cartan(q: OrientedQuiver) -> np.ndarray:
    """Row i is the dimension vector of the projective at vertex i: entry
    j is the number of paths from i to j (0 or 1 on a tree): I + A + A^2
    + ... for the arrow matrix A, nilpotent on an acyclic quiver, summed by
    squaring A until it vanishes, one step per doubling of the longest path."""
    paths, power = np.eye(q.rank, dtype=np.int64), q.arrow_counts
    while power.any():
        paths = paths + power @ paths
        power = power @ power
    return paths


def euler_form(x, y, q: OrientedQuiver) -> np.ndarray:
    """<x, y> = x (I - A) y^T for dimension vectors in quiver vertex order;
    for stacks of vectors (one per row) the matrix of all pairs."""
    euler = np.eye(q.rank, dtype=np.int64) - q.arrow_counts
    return np.asarray(x) @ euler @ np.asarray(y).T


def _root_forms(q: OrientedQuiver, roots: np.ndarray) -> np.ndarray:
    """The Euler forms <alpha, beta> of every pair of roots, from one
    product that also pairs the projectives P_l, taken from
    ``path_cartan``, with every root.  Raises ConventionError unless
    <alpha, alpha> = 1 for every root and <P_l, alpha> = alpha_l for
    every vertex l."""
    forms = euler_form(np.concatenate((path_cartan(q), roots)), roots, q)
    projective, forms = forms[: q.rank], forms[q.rank :]
    if (np.diagonal(forms) != 1).any() or (projective != roots.T).any():
        raise ConventionError("Euler form failed the root and projective self-check")
    return forms


# ---------------------------------------------------------------------------
# The compatibility complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompatibilityComplex:
    """Flag complex of pairwise-compatible rigid objects.

    Vertex i is the module of root ``roots[i]`` for i < len(roots), and
    the shifted projective at quiver vertex i - len(roots) after that.
    ``compatible[i, j]`` is True when vertices i and j are compatible (a
    read-only boolean matrix with a False diagonal).  ``dims`` are the
    vertex dimensions: a module's is its root's coefficient sum, a
    shifted projective's 0.  ``face_counts`` and
    ``face_dim_sums`` are the face counts and dimension-weighted face
    counts per size, from a census that refuses a maximal face of fewer
    than ``rank`` vertices, so the maximal faces are the faces of
    ``rank`` vertices.
    """

    roots: np.ndarray
    compatible: np.ndarray
    dims: list[int]
    face_counts: tuple[int, ...]
    face_dim_sums: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.roots.shape[1]

    @property
    def maximal_face_count(self) -> int:
        return self.face_counts[self.rank]

    def f_polynomial(self) -> Polynomial:
        return Polynomial(reversed(self.face_counts))

    def h_polynomial(self) -> Polynomial:
        return self.f_polynomial().shifted(-1)

    def d_polynomial(self) -> Polynomial:
        return Polynomial(reversed(self.face_dim_sums))

    def link_f_polynomial(self, vertex_index: int) -> Polynomial:
        """Face-count polynomial of the link of a module vertex."""
        if not 0 <= vertex_index < len(self.roots):
            raise NotAModule(f"vertex {vertex_index} is not a module vertex")
        neighbors = np.flatnonzero(self.compatible[vertex_index])
        sub = self.compatible[np.ix_(neighbors, neighbors)]
        counts, _, _ = _clique_census(sub, [0] * len(neighbors), self.rank)
        n = self.rank - 1
        return Polynomial([counts[n - power] for power in range(n + 1)])


_COMPLEX_RANK_CAP = 8


# keys are the Cartan matrices of the graphs tau_rigid_complex admits, rank
# at most _COMPLEX_RANK_CAP = 8, so the set is finite
@lru_cache(maxsize=None)
def _roots_and_relabellings(cartan: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, dict]:
    """The positive roots of a graph, shared by all its orientations, as
    a read-only int64 array, and the automorphisms s of a connected graph
    (only the identity of a disconnected one), each with its read-only
    relabelling p of the complex's vertices: if Q has the graph
    ``compatible``, the quiver with each arrow a -> b moved to s(a) -> s(b)
    has the graph ``compatible[p][:, p]``, as its module of root beta is
    Q's of root beta∘s and its P_l[1] is Q's P_{s^-1(l)}[1].  The vertices
    are mapped in breadth-first order, each onto one that keeps its
    adjacency to every vertex mapped before."""
    roots, n = np.array(positive_roots(np.array(cartan)), dtype=np.int64), len(cartan)
    adjacent = [[entry < 0 for entry in row] for row in cartan]
    maps = [dict(enumerate(range(n)))]
    if sum(map(sum, adjacent)) == 2 * (n - 1):  # a forest with n - 1 edges is connected
        order, maps = [0], [{}]
        for v in order:  # the list grows while it is read
            order += [u for u in range(n) if adjacent[v][u] and u not in order]
        for v in order:
            maps = [
                {**m, v: w}
                for m in maps
                for w in range(n)
                if w not in m.values() and all(adjacent[v][u] == adjacent[w][m[u]] for u in m)
            ]
    index = {root: i for i, root in enumerate(map(tuple, roots.tolist()))}
    relabellings = {}
    for m in maps:
        s = [m[v] for v in range(n)]
        moved = [index[root] for root in map(tuple, roots[:, s].tolist())]
        relabellings[tuple(s)] = np.array(moved + [len(roots) + s.index(v) for v in range(n)])
    for array in (roots, *relabellings.values()):
        array.flags.writeable = False  # the cache hands the same arrays to every caller
    return roots, relabellings


# face counts and dimension-weighted face counts, shared by the graphs of
# Q and Q^op (byte-identical) and by those a diagram automorphism relabels
# into each other: keyed by the roots and the least compatible[p][:, p]
# bytes over the relabellings p (the two byte lengths fix the shapes)
_FACE_COUNTS: dict[tuple[bytes, bytes], tuple[tuple[int, ...], tuple[int, ...]]] = {}


def tau_rigid_complex(q: OrientedQuiver) -> CompatibilityComplex:
    """Build the full compatibility complex of a Dynkin quiver (or union).

    Vertices are the indecomposable modules, one per positive root of the
    underlying graph, plus one shifted projective per quiver vertex.  Two
    modules are compatible when both extension spaces vanish; a shifted
    projective is compatible with a module not supported at its vertex,
    and with every other shifted projective.  Every call checks the
    quiver's own Euler form, builds its graph and returns a fresh complex
    in its own vertex order, over the graph's shared read-only roots.
    The faces are counted once per graph up to an automorphism of a
    connected underlying graph: Q and Q^op have one graph, and a diagram
    symmetry relabels it.
    """
    if q.rank > _COMPLEX_RANK_CAP:
        raise RankTooLarge(f"complex enumeration capped at rank {_COMPLEX_RANK_CAP}")
    arrows = q.arrow_counts
    cartan = 2 * np.eye(q.rank, dtype=np.int64) - arrows - arrows.T
    roots, relabellings = _roots_and_relabellings(tuple(map(tuple, cartan.tolist())))
    forms = _root_forms(q, roots)
    # Ext^1(M, N) = max(0, -<M, N>): two modules are compatible when both
    # forms are >= 0, a module and P_l[1] when it vanishes at l, and any
    # two shifted projectives
    modules = len(roots)
    compatible = np.ones((modules + q.rank, modules + q.rank), dtype=bool)
    compatible[:modules, :modules] = (forms >= 0) & (forms.T >= 0)
    compatible[:modules, modules:] = roots == 0
    compatible[modules:, :modules] = roots.T == 0
    np.fill_diagonal(compatible, False)
    compatible.flags.writeable = False
    dims = roots.sum(axis=1).tolist() + [0] * q.rank
    key = roots.tobytes(), min(compatible[p][:, p].tobytes() for p in relabellings.values())
    if key not in _FACE_COUNTS:
        counts, dim_sums, maximal = _clique_census(compatible, dims, q.rank)
        if any(maximal[: q.rank]):
            raise ImpurityError("complex is not pure: maximal face below full rank")
        _FACE_COUNTS[key] = tuple(counts), tuple(dim_sums)
    return CompatibilityComplex(roots, compatible, dims, *_FACE_COUNTS[key])


def disjoint_union_d_check(q1: OrientedQuiver, q2: OrientedQuiver) -> bool:
    """Product rule check: d of a disjoint union against the two factors."""
    union = q1.disjoint_with(q2)
    cu, c1, c2 = tau_rigid_complex(union), tau_rigid_complex(q1), tau_rigid_complex(q2)
    lhs = cu.d_polynomial()
    rhs = c1.d_polynomial() * c2.f_polynomial() + c1.f_polynomial() * c2.d_polynomial()
    return lhs == rhs


# ---------------------------------------------------------------------------
# Translate orbits by simple reflections
# ---------------------------------------------------------------------------


def _reflection_rounds(q: OrientedQuiver, C: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The reflections of one inverse translate in rounds: vertex indices
    and their neighbours' indices, padded with n.  A tail is reached by
    fewer vertices than its head (column sums of C), so the vertices
    reached by equally many share no arrow: a round, in rising count."""
    arrows = q.arrow_counts
    links = arrows + arrows.T
    neighbours = np.full((q.rank, links.sum(axis=1).max()), q.rank)
    for row, link in zip(neighbours, links):
        row[: link.sum()] = np.repeat(np.arange(q.rank), link)
    reached_by = C.sum(axis=0)
    groups = (np.flatnonzero(reached_by == count) for count in sorted(set(reached_by.tolist())))
    return [(group, neighbours[group]) for group in groups]


def translate_orbits(q: OrientedQuiver) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Move every projective, read off path counts, through its
    translate orbit; each step yields each live row's projective index
    and the rows, in quiver vertex order, never changed later.  tau^-1
    applies the simple reflections, every arrow's tail before its head
    (Bernstein-Gelfand-Ponomarev): s_i sets entry i to its neighbours'
    sum minus itself.  A row leaving the orthant still positive raises."""
    C = path_cartan(q)
    rounds = _reflection_rounds(q, C)
    owner, rows = np.arange(q.rank), np.pad(C, ((0, 0), (0, 1)))  # the last column stays 0
    while len(owner):
        yield owner, rows[:, :-1]
        rows = rows.copy()
        for group, pad in rounds:
            rows[:, group] = rows[:, pad].sum(axis=2) - rows[:, group]
        live = (rows >= 0).all(axis=1) & rows.any(axis=1)
        if (rows[~live] > 0).any():
            raise ConventionError("orbit left the positive orthant without turning negative")
        owner, rows = owner[live], rows[live]


def tau_orbit_totals(d: DynkinDiagram) -> dict[int, int]:
    """The translate-orbit total of the projective at every vertex of a
    diagram, its sources the vertices an even distance from the centre
    (totals do not depend on the orientation).  The orbits hold the N
    positive roots once each, vectors of n entries: N * n is checked
    against the budget first, and a sweep of other than N rows raises."""
    roots = d.positive_root_count()
    what = f"{d} translate orbits ({roots:,} modules of {d.rank} entries)"
    check_oracle_budget(what, roots * d.rank)
    odd = {v for v in d.vertices if (_star(d, v)[1] or (0, 0))[1] % 2}
    q = OrientedQuiver.from_diagram(d, "".join("0" if a in odd else "1" for a, _ in d.edges))
    totals, count = np.zeros(d.rank, dtype=np.int64), 0
    for owner, rows in translate_orbits(q):
        count += len(rows)
        if count > roots:
            raise ConventionError(f"{d} translate orbits passed its {roots:,} positive roots")
        totals[owner] += rows.sum(axis=1)
    if count < roots:
        raise ConventionError(f"{d} translate orbits held {count:,} of {roots:,} positive roots")
    return dict(zip(q.vertices, totals.tolist()))
