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
  reachability: <alpha, alpha> = 1 for every root and <P_l, alpha> =
  alpha_l for every vertex l.  Face counts of the complex give the
  face-count polynomial, dimension-weighted face counts give the
  dimension polynomial, with no closed formula anywhere.  The faces are
  counted by ``oracles._clique_census``, the census that also counts the
  antichains of the root poset for the Narayana oracle: level by level
  in numpy, a face being its last vertex and the bitmask of the vertices
  compatible with all of it.

* The translate-orbit dimension sum, computed by iterating the inverse
  Coxeter transformation on the dimension vector of a projective until
  it leaves the positive orthant.  On an acyclic quiver the matrix C of
  projectives is (I - A)^-1, so the inverse transformation on row vectors
  is -(I - A^T) C, with no matrix inversion.  Its sign and transpose
  conventions are pinned by a startup self-check on a rank 3 example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Iterator

import numpy as np

from .dynkin import DynkinDiagram
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

    def arrow_counts(self) -> np.ndarray:
        """Matrix A with A[i, j] the number of arrows from vertex i to
        vertex j, in vertex order."""
        index = {v: k for k, v in enumerate(self.vertices)}
        counts = np.zeros((self.rank, self.rank), dtype=np.int64)
        for a, b in self.arrows:
            counts[index[a], index[b]] += 1
        return counts


# ---------------------------------------------------------------------------
# Projectives and the Euler form on dimension vectors
# ---------------------------------------------------------------------------


def path_cartan(q: OrientedQuiver) -> list[list[int]]:
    """Row i is the dimension vector of the projective at vertex i
    (entry j = number of paths i to j; 0 or 1 on a tree)."""
    index = {v: k for k, v in enumerate(q.vertices)}
    n = q.rank
    C = [[0] * n for _ in range(n)]
    for v in q.vertices:
        reach = {v}
        changed = True
        while changed:
            changed = False
            for a, b in q.arrows:
                if a in reach and b not in reach:
                    reach.add(b)
                    changed = True
        for w in reach:
            C[index[v]][index[w]] = 1
    return C


def euler_form(x, y, q: OrientedQuiver) -> np.ndarray:
    """<x, y> = x (I - A) y^T for dimension vectors in quiver vertex order;
    for stacks of vectors (one per row) the matrix of all pairs."""
    euler = np.eye(q.rank, dtype=np.int64) - q.arrow_counts()
    return np.asarray(x) @ euler @ np.asarray(y).T


def ext_dim(m, n, q: OrientedQuiver):
    """dim Ext^1(M, N) = max(0, -<dim M, dim N>) for indecomposables.

    Takes two dimension vectors and returns an int, or two stacks of them
    and returns the integer matrix of all pairs.

    >>> q = OrientedQuiver.line(2)  # 1 -> 2
    >>> ext_dim((1, 0), (0, 1), q), ext_dim((0, 1), (1, 0), q)
    (1, 0)
    """
    value = np.maximum(0, -euler_form(m, n, q))
    return int(value) if value.ndim == 0 else value


def _check_euler_form(q: OrientedQuiver, roots: np.ndarray) -> None:
    """Raise ConventionError unless <alpha, alpha> = 1 for every root and
    <P_l, alpha> = alpha_l for every vertex l, with the projectives P_l
    taken from path reachability."""
    self_forms = np.diagonal(euler_form(roots, roots, q))
    projectives = np.array(path_cartan(q), dtype=np.int64)
    if (self_forms != 1).any() or (euler_form(projectives, roots, q) != roots.T).any():
        raise ConventionError("Euler form failed the root and projective self-check")


# ---------------------------------------------------------------------------
# The compatibility complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompatibilityComplex:
    """Flag complex of pairwise-compatible rigid objects.

    Vertex i is the module of root ``roots[i]`` for i < len(roots), and
    the shifted projective at quiver vertex i - len(roots) after that.
    ``compatible[i, j]`` is True when vertices i and j are compatible (a
    read-only boolean matrix with a False diagonal).  Face counts and
    dimension-weighted face counts are counted per size on construction,
    which refuses a maximal face of fewer than ``rank`` vertices, so the
    maximal faces are the faces of ``rank`` vertices.
    """

    roots: np.ndarray
    compatible: np.ndarray
    face_counts: tuple[int, ...] = field(init=False)
    face_dim_sums: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        counts, dim_sums, maximal = _clique_census(self.compatible, self.dims, self.rank)
        if any(maximal[k] for k in range(self.rank)):
            raise ImpurityError("complex is not pure: maximal face below full rank")
        object.__setattr__(self, "face_counts", tuple(counts))
        object.__setattr__(self, "face_dim_sums", tuple(dim_sums))

    @property
    def rank(self) -> int:
        return self.roots.shape[1]

    @property
    def dims(self) -> list[int]:
        """Vertex dimensions: a module's is its root's coefficient sum, a
        shifted projective's 0."""
        return self.roots.sum(axis=1).tolist() + [0] * self.rank

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


# keys are Cartan matrices of rank at most _COMPLEX_RANK_CAP, as tau_rigid_complex's are
@lru_cache(maxsize=None)
def _graph_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The positive roots of a graph, shared by all its orientations."""
    return tuple(positive_roots(np.array(cartan, dtype=np.int64)))


# keys are quivers of rank at most _COMPLEX_RANK_CAP = 8, a finite set
@lru_cache(maxsize=None)
def tau_rigid_complex(q: OrientedQuiver) -> CompatibilityComplex:
    """Build the full compatibility complex of a Dynkin quiver (or union).

    Vertices are the indecomposable modules, one per positive root of the
    underlying graph, plus one shifted projective per quiver vertex.  Two
    modules are compatible when both extension spaces vanish; a shifted
    projective is compatible with a module not supported at its vertex,
    and with every other shifted projective.
    """
    if q.rank > _COMPLEX_RANK_CAP:
        raise RankTooLarge(f"complex enumeration capped at rank {_COMPLEX_RANK_CAP}")
    arrows = q.arrow_counts()
    cartan = 2 * np.eye(q.rank, dtype=np.int64) - arrows - arrows.T
    roots = np.array(_graph_roots(tuple(map(tuple, cartan.tolist()))), dtype=np.int64)
    _check_euler_form(q, roots)

    ext = ext_dim(roots, roots, q)
    unsupported = roots == 0  # entry (i, l): root i vanishes at vertex l
    compatible = np.block(
        [
            [(ext == 0) & (ext.T == 0), unsupported],
            [unsupported.T, np.ones((q.rank, q.rank), dtype=bool)],
        ]
    )
    np.fill_diagonal(compatible, False)
    roots.flags.writeable = compatible.flags.writeable = False
    return CompatibilityComplex(roots, compatible)


def disjoint_union_d_check(q1: OrientedQuiver, q2: OrientedQuiver) -> bool:
    """Product rule check: d of a disjoint union against the two factors."""
    if q1.rank + q2.rank > _COMPLEX_RANK_CAP:
        raise RankTooLarge("combined rank too large for the union check")
    union = q1.disjoint_with(q2)
    cu, c1, c2 = tau_rigid_complex(union), tau_rigid_complex(q1), tau_rigid_complex(q2)
    lhs = cu.d_polynomial()
    rhs = c1.d_polynomial() * c2.f_polynomial() + c1.f_polynomial() * c2.d_polynomial()
    return lhs == rhs


# ---------------------------------------------------------------------------
# Translate-orbit dimension sums via the Coxeter transformation
# ---------------------------------------------------------------------------


@cache
def _check_convention() -> None:
    """Run once per process; a failure raises and is not cached, so a
    later call checks again."""
    probe = OrientedQuiver.line(3)
    for ell in (1, 2, 3):
        expected = ell * (3 - ell + 1)
        if sum(map(sum, tau_orbit_vectors(probe, ell))) != expected:
            raise ConventionError(
                "Coxeter transform convention failed the rank 3 self-check"
            )


# an all-vertex run asks for one quiver's matrices at every vertex in turn
@lru_cache(maxsize=1)
def _translate_matrices(q: OrientedQuiver) -> tuple[np.ndarray, np.ndarray]:
    """The projectives C (row i at vertex i) and the inverse translate on
    row vectors, read-only: dim tau M = dim M . Phi with Phi = -C^-1 C^T,
    and C = (I - A)^-1 turns the inverse -(C^T)^-1 C into -(I - A^T) C."""
    C = np.array(path_cartan(q), dtype=np.int64)
    phi_inv = (q.arrow_counts().T - np.eye(q.rank, dtype=np.int64)) @ C
    C.flags.writeable = phi_inv.flags.writeable = False
    return C, phi_inv


def tau_orbit_vectors(q: OrientedQuiver, ell: int) -> list[tuple[int, ...]]:
    """Dimension vectors of the translate orbit of the projective at ell,
    in quiver vertex order, until the orbit leaves the positive orthant."""
    if ell not in q.vertices:
        raise UsageError(f"vertex {ell} not in quiver")
    C, phi_inv = _translate_matrices(q)
    v = C[q.vertices.index(ell)]
    out = []
    while (v >= 0).all() and (v > 0).any():
        out.append(tuple(v.tolist()))
        v = v @ phi_inv
    if (v > 0).any():
        raise ConventionError("orbit left the positive orthant without turning negative")
    return out


def tau_orbit_dim(q: OrientedQuiver, ell: int) -> int:
    """Total dimension of the translate orbit of the projective at a vertex.

    Equals the dimension of the corresponding projective over the
    doubled-quiver algebra, independently of the orientation.
    """
    _check_convention()
    return sum(map(sum, tau_orbit_vectors(q, ell)))


def tau_orbit_total(d: DynkinDiagram, ell: int) -> int:
    """tau_orbit_dim at ell of the default orientation of a diagram.  The
    orbits of all the projectives hold the N positive roots once each, as
    vectors of n entries, so N * n is checked against the budget first."""
    d.check_vertex(ell)
    check_oracle_budget(
        f"{d} translate orbits ({d.positive_root_count():,} modules of {d.rank} entries)",
        d.positive_root_count() * d.rank,
    )
    return tau_orbit_dim(OrientedQuiver.from_diagram(d), ell)
