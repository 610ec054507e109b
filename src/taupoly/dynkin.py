"""Simply-laced Dynkin diagrams, vertex deletion, and component classification.

Vertex labels follow fixed conventions so that per-vertex formulas can
address vertices unambiguously:

* ``A_n``: the path ``1 - 2 - ... - n``.
* ``D_n`` (n >= 4): labels ``{-1, 1, 2, ..., n-1}`` with both ``1`` and
  ``-1`` attached to ``2`` and the tail ``2 - 3 - ... - (n-1)``.
* ``E_n`` (n in 6..8): the chain ``1 - 2 - 3 - 5 - 6 - ... - n`` with the
  extra vertex ``4`` attached to ``3``.

Deleting a vertex yields a forest; each component is classified back into
the A/D/E families by tree shape, never by a rank lookup, so malformed
inputs fail structurally.  The rank-2 and rank-3 "D" shapes fall out as
``A1 x A1`` and ``A3`` automatically because that is what the trees are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .errors import NotAVertex, UsageError

_VALID_E_RANKS = (6, 7, 8)


@dataclass(frozen=True, order=True)
class DynkinDiagram:
    """A connected simply-laced Dynkin diagram, one of A_n, D_n, E_n."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family == "A":
            if self.rank < 1:
                raise UsageError(f"A_n needs n >= 1, got {self.rank}")
        elif self.family == "D":
            if self.rank < 4:
                raise UsageError(f"D_n needs n >= 4 as a diagram, got {self.rank}")
        elif self.family == "E":
            if self.rank not in _VALID_E_RANKS:
                raise UsageError(f"E_n needs n in {{6,7,8}}, got {self.rank}")
        else:
            raise UsageError(f"unknown family {self.family!r}")

    @property
    def vertices(self) -> tuple[int, ...]:
        if self.family == "D":
            return (-1,) + tuple(range(1, self.rank))
        return tuple(range(1, self.rank + 1))

    def check_vertex(self, ell: int) -> None:
        """Raise ``NotAVertex`` unless ``ell`` labels a vertex."""
        if ell not in self.vertices:
            raise NotAVertex(f"{self} has no vertex {ell}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        n = self.rank
        if self.family == "A":
            return tuple((i, i + 1) for i in range(1, n))
        if self.family == "D":
            tail = tuple((i, i + 1) for i in range(2, n - 1))
            return ((1, 2), (-1, 2)) + tail
        chain = [(1, 2), (2, 3), (3, 5)] + [(i, i + 1) for i in range(5, n)]
        return tuple(chain[: n - 2]) + ((3, 4),)

    def group_order(self) -> int:
        """Order of the associated reflection group."""
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        if self.family == "D":
            return 2 ** (n - 1) * factorial(n)
        return {6: 51840, 7: 2903040, 8: 696729600}[n]

    def catalan_count(self) -> int:
        """W-Catalan number: the maximal rigid objects of the path algebra.

        >>> DynkinDiagram("D", 4).catalan_count()
        50
        """
        n = self.rank
        if self.family == "A":
            return comb(2 * n + 2, n + 1) // (n + 2)
        if self.family == "D":
            return (3 * n - 2) * comb(2 * n - 1, n - 1) // (2 * n - 1)
        return {6: 833, 7: 4160, 8: 25080}[n]

    def positive_root_count(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family == "D":
            return n * (n - 1)
        return {6: 36, 7: 63, 8: 120}[n]

    def coxeter_number(self) -> int:
        return 2 * self.positive_root_count() // self.rank

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class DiagramUnion:
    """A disjoint union of Dynkin diagrams; the empty union is rank 0.

    Components are kept sorted so that equal unions compare and hash equal
    regardless of construction order.
    """

    components: tuple[DynkinDiagram, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(sorted(self.components))
        )

    @property
    def rank(self) -> int:
        return sum(d.rank for d in self.components)

    def __bool__(self) -> bool:
        return bool(self.components)

    def __iter__(self):
        return iter(self.components)

    def __str__(self) -> str:
        if not self.components:
            return "empty"
        return "x".join(str(d) for d in self.components)


def _classify_tree(vertices: frozenset[int], adjacency: dict[int, set[int]]) -> DynkinDiagram:
    """Classify a connected tree as A_k, D_k or E_k by its branch shape."""
    k = len(vertices)
    degrees = {v: len(adjacency[v] & vertices) for v in vertices}
    deg3 = [v for v in vertices if degrees[v] == 3]
    if any(degrees[v] > 3 for v in vertices):
        raise RuntimeError("unreachable: degree > 3 in a Dynkin minor")
    if not deg3:
        return DynkinDiagram("A", k)
    if len(deg3) > 1:
        raise RuntimeError("unreachable: two branch vertices in a Dynkin minor")
    center = deg3[0]
    lengths = sorted(_branch_length(center, nbr, vertices, adjacency) for nbr in adjacency[center] & vertices)
    if lengths[0] == 1 and lengths[1] == 1:
        return DynkinDiagram("D", k)
    if lengths[:2] == [1, 2] and lengths[2] in (2, 3, 4):
        return DynkinDiagram("E", k)
    raise RuntimeError(f"unreachable: branch shape {lengths} is not a Dynkin minor")


def _branch_length(center: int, start: int, vertices: frozenset[int], adjacency: dict[int, set[int]]) -> int:
    length = 0
    prev, cur = center, start
    while True:
        length += 1
        nxt = [v for v in adjacency[cur] & vertices if v != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]


# one entry per (diagram, vertex): rank-many for each diagram the engine meets
@lru_cache(maxsize=None)
def delete_vertex(d: DynkinDiagram, ell: int) -> DiagramUnion:
    """Remove vertex ``ell`` and classify the resulting forest.

    >>> str(delete_vertex(DynkinDiagram("E", 6), 4))
    'A5'
    >>> str(delete_vertex(DynkinDiagram("E", 8), 1))
    'D7'
    """
    d.check_vertex(ell)
    remaining = frozenset(v for v in d.vertices if v != ell)
    adjacency: dict[int, set[int]] = {v: set() for v in d.vertices}
    for a, b in d.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[int] = set()
    components = []
    for v in remaining:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            cur = stack.pop()
            for nbr in adjacency[cur] & remaining:
                if nbr not in comp:
                    comp.add(nbr)
                    stack.append(nbr)
        seen |= comp
        components.append(_classify_tree(frozenset(comp), adjacency))
    return DiagramUnion(tuple(components))


def as_union(d) -> DiagramUnion:
    if isinstance(d, DiagramUnion):
        return d
    if isinstance(d, DynkinDiagram):
        return DiagramUnion((d,))
    raise TypeError(f"expected diagram or union, got {type(d).__name__}")


_DIAGRAM_RE = re.compile(r"^([ADE])(\d+)$", re.IGNORECASE)


def parse_diagram(text: str) -> DynkinDiagram:
    """Parse "A5", "D6", "E7" (case-insensitive)."""
    m = _DIAGRAM_RE.match(text.strip())
    if not m:
        raise UsageError(f"cannot parse diagram {text!r}; expected like A5, D6, E7")
    return DynkinDiagram(m.group(1).upper(), int(m.group(2)))


def parse_union(text: str) -> DiagramUnion:
    """Parse "A2xA1xA2" into a union; "empty" gives the rank-0 union."""
    body = text.strip()
    if body.lower() in ("", "empty", "a0"):
        return DiagramUnion()
    parts = re.split(r"[x*]", body, flags=re.IGNORECASE)
    return DiagramUnion(tuple(parse_diagram(p) for p in parts))
