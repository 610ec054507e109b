"""Simply-laced Dynkin diagrams, vertex deletion, and weight heights in
integers.

Vertex labels follow fixed conventions so that per-vertex formulas can
address vertices unambiguously:

* ``A_n``: the path ``1 - 2 - ... - n``.
* ``D_n`` (n >= 4): labels ``{-1, 1, 2, ..., n-1}`` with both ``1`` and
  ``-1`` attached to ``2`` and the tail ``2 - 3 - ... - (n-1)``.
* ``E_n`` (n in 6..8): the chain ``1 - 2 - 3 - 5 - 6 - ... - n`` with the
  extra vertex ``4`` attached to ``3``.

Every one of them is a star: a centre (vertex 1 of A_n, 2 of D_n, 3 of
E_n) with three arms, of lengths (0, 0, n-1), (1, 1, n-3) and (2, 1, n-4).
Deletion, det C of the Cartan matrix C and the weight heights are worked
out in O(1) from the arm lengths and where the vertex sits.  A height
ht(w_l) is a row sum of C^-1, so it is kept as the integer det(C) ht(w_l),
the row sum of the adjugate of C.  A star with arms a <= b <= c is A_(b+c+1)
when a = 0, D_(c+3) when a = b = 1 and E_(c+4) when (a, b) = (1, 2), so
the rank-2 and rank-3 "D" shapes come back as ``A1 x A1`` and ``A3``;
any other shape is an internal error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import prod

from .errors import ConsistencyError, NotAVertex, UsageError, exact_quotient

_E_DEGREES = {
    6: (2, 5, 6, 8, 9, 12),
    7: (2, 6, 8, 10, 12, 14, 18),
    8: (2, 8, 12, 14, 18, 20, 24, 30),
}


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
            if self.rank not in _E_DEGREES:
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
        is_d = self.family == "D"
        if not (1 <= ell <= self.rank - is_d or (is_d and ell == -1)):
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

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants of the Weyl group."""
        n = self.rank
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family == "D":
            return (*range(2, 2 * n - 1, 2), n)
        return _E_DEGREES[n]

    # keys are the diagrams asked about, one int each: the deletions of
    # A1000 (dim-orbit) leave 1,000 of them, about 0.5 MB in all
    @cache
    def group_order(self) -> int:
        """Order of the associated reflection group."""
        return prod(self.degrees)

    def catalan_count(self) -> int:
        """W-Catalan number: the maximal rigid objects of the path algebra.

        >>> DynkinDiagram("D", 4).catalan_count()
        50
        """
        h = self.coxeter_number()
        return prod(h + d for d in self.degrees) // self.group_order()

    def positive_root_count(self) -> int:
        return sum(d - 1 for d in self.degrees)

    def coxeter_number(self) -> int:
        return max(self.degrees)

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


# family -> (short arm lengths, centre label, short-arm label -> (arm,
# distance), label minus distance along the long arm, which is arm 2)
_STARS = {
    "A": ((0, 0), 1, {}, 1),
    "D": ((1, 1), 2, {1: (0, 1), -1: (1, 1)}, 2),
    "E": ((2, 1), 3, {2: (0, 1), 1: (0, 2), 4: (1, 1)}, 4),
}


def _arms(d: DynkinDiagram) -> tuple[int, int, int]:
    """The three arm lengths of ``d`` about its centre."""
    short = _STARS[d.family][0]
    return (*short, d.rank - 1 - sum(short))


def _star(d: DynkinDiagram, ell: int) -> tuple[tuple[int, int, int], tuple[int, int] | None]:
    """The three arm lengths of ``d`` about its centre, and where ``ell``
    sits: ``(arm, distance from the centre)``, or None for the centre."""
    d.check_vertex(ell)
    _, centre, placed, offset = _STARS[d.family]
    return _arms(d), None if ell == centre else placed.get(ell, (2, ell - offset))


def _star_diagram(arms: tuple[int, ...]) -> DynkinDiagram:
    """The connected diagram of a star with these arm lengths."""
    a, b, c = sorted(arms)
    if a == 0:
        return DynkinDiagram("A", b + c + 1)
    if (a, b) == (1, 1):
        return DynkinDiagram("D", c + 3)
    if (a, b) == (1, 2) and c <= 4:
        return DynkinDiagram("E", c + 4)
    raise ConsistencyError(f"a star with arms {arms} is not a Dynkin diagram")


def delete_vertex(d: DynkinDiagram, ell: int) -> DiagramUnion:
    """Remove vertex ``ell``: deleting the centre leaves its arms, deleting
    the vertex at distance i on an arm of length m leaves the star with
    that arm cut to i - 1 and, if m > i, a path of m - i vertices.

    >>> str(delete_vertex(DynkinDiagram("E", 6), 4))
    'A5'
    >>> str(delete_vertex(DynkinDiagram("E", 8), 1))
    'D7'
    """
    arms, where = _star(d, ell)
    if where is None:
        return DiagramUnion(tuple(DynkinDiagram("A", m) for m in arms if m))
    arm, i = where
    m = arms[arm]
    pieces = [_star_diagram(arms[:arm] + (i - 1,) + arms[arm + 1 :])]
    if m > i:
        pieces.append(DynkinDiagram("A", m - i))
    return DiagramUnion(tuple(pieces))


def cartan_determinant(d: DynkinDiagram) -> int:
    """det C of the Cartan matrix, from the arm lengths: with P the
    product of (m + 1) over the arms, det C = 2 P - sum m P / (m + 1),
    which is n + 1 for A_n, 4 for D_n and 3, 2, 1 for E6, E7, E8.

    >>> [cartan_determinant(DynkinDiagram("E", n)) for n in (6, 7, 8)]
    [3, 2, 1]
    """
    arms = _arms(d)
    whole = prod(m + 1 for m in arms)
    return 2 * whole - sum(m * (whole // (m + 1)) for m in arms)


def weight_height(d: DynkinDiagram, ell: int) -> int:
    """det(C) ht(w_ell): the row-ell sum of the adjugate of the Cartan
    matrix C, ht(w_ell) being the row-ell sum of C^-1.

    C x = (1, ..., 1) solved arm by arm: on an arm of length m, with
    p = m + 1 - i, the vertex at distance i has x = p i / 2 + p x_c / (m + 1),
    and the centre's row gives x_c = P (n + 1) / (2 det C), with P as in
    ``cartan_determinant`` and n the rank.  Scaled by det C, the centre
    gives P (n + 1) / 2 and the vertex p (i det C + (n + 1) P / (m + 1)) / 2.

    >>> weight_height(DynkinDiagram("D", 4), 2)
    20
    """
    arms, where = _star(d, ell)
    whole = prod(m + 1 for m in arms)
    if where is None:
        twice = whole * (d.rank + 1)
    else:
        arm, i = where
        m = arms[arm]
        twice = (m + 1 - i) * (i * cartan_determinant(d) + (d.rank + 1) * (whole // (m + 1)))
    return exact_quotient(twice, 2, lambda: f"twice det(C) ht(w_{ell}) of {d}")


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
