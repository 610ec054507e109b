"""Face, descent and Narayana polynomials of finite reflection groups.

The engine is one link recursion over deleted diagrams.  Let
Phi(x) = sum over k of (number of k-element faces) x^k for the complex of
a diagram: the Coxeter complex for the preprojective family, the cluster
complex for the path family.  Phi of the empty diagram is 1 and Phi of a
union is the product over its components.  The link of a vertex of type
l is the complex of the diagram with l deleted, so counting pairs
(face, vertex in it) gives, for a connected diagram of rank n,

    k Phi_k = sum over vertices l of N_l * [x^(k-1)] Phi(diagram minus l),

for k = 1..n, where N_l counts the complex's vertices of type l:

* preprojective: N_l = |W| / |W(diagram minus l)|, the cosets of the
  maximal parabolic subgroup;
* path: N_l = (h + 2) / 2 with h the Coxeter number, applied as
  2k Phi_k = (h + 2) * sum so that nothing is ever a fraction.

The sum over links, with any weight per vertex, is ``link_sum``: the
recursion takes it with N_l, and ``formulas.d_polynomial`` with the
orbit dimension totals.  The face polynomial is Phi with its
coefficients reversed, and its shift by -1 is the h-polynomial
(``formulas.h_polynomial``): the descent polynomial of the Weyl group
(preprojective) or the W-Narayana polynomial (path).  Every division is
checked to be exact, and a failure raises ``ConsistencyError``.  The
connected diagrams below a diagram are filled in by rank, smallest
first, so the recursion is a loop and no rank overflows the Python
stack.  That walk and ``link_sum`` read one memoised link table per
diagram, each vertex with its minor and coset index, so each vertex is
deleted once.  Phi is kept as a tuple of Python integers, multiplied by
``polynomials.convolve``, and becomes a ``Polynomial`` only when it
leaves the engine.  For a diagram of rank n the recursion makes fewer
than n^4 coefficient products; n^4 is checked against
``errors.ENGINE_BUDGET`` before any work.

A family is ``PREPROJECTIVE`` or ``PATH``.  ``check_family`` is the one
check of it: ``face_polynomial``, ``link_sum`` and the ``formulas``
entries call it before any memo entry is written.

The brute-force routes the tests compare these with are in ``oracles``;
nothing here calls them.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import Callable, Sequence

from .dynkin import DiagramUnion, DynkinDiagram, as_union, delete_vertex
from .errors import ENGINE_BUDGET, UsageError, exact_quotient
from .polynomials import Polynomial, convolve

PREPROJECTIVE = "preprojective"
PATH = "path"


def check_family(family: str) -> None:
    """Raise UsageError unless ``family`` is one of the two families."""
    if family not in (PREPROJECTIVE, PATH):
        raise UsageError(f"family must be {PREPROJECTIVE!r} or {PATH!r}")


def _coset_index(d: DynkinDiagram, ell: int, minor: DiagramUnion) -> int:
    parabolic = prod(comp.group_order() for comp in minor)
    return exact_quotient(d.group_order(), parabolic, lambda: f"[W({d}) : W({d} minus {ell})]")


def coset_count(d: DynkinDiagram, ell: int) -> int:
    """Index of the parabolic subgroup W(d minus ell) in W(d), counted
    without the link tables, since ``d`` may be past the engine budget.

    >>> coset_count(DynkinDiagram("A", 3), 2)
    6
    """
    return _coset_index(d, ell, delete_vertex(d, ell))


# (family, connected A/D/E diagram) -> Phi as ascending counts, for every
# diagram up to the largest rank asked for, so at most six keys per rank
_FACE_COUNTS: dict[tuple[str, DynkinDiagram], tuple[int, ...]] = {}

# connected diagram -> (ell, d minus ell, [W(d) : W(d minus ell)]) per vertex,
# written past link_sum's budget check: at most three keys per rank, up to 200
_LINKS: dict[DynkinDiagram, tuple[tuple[int, DiagramUnion, int], ...]] = {}


def _link_table(d: DynkinDiagram) -> tuple[tuple[int, DiagramUnion, int], ...]:
    if d not in _LINKS:
        minors = {ell: delete_vertex(d, ell) for ell in d.vertices}
        _LINKS[d] = tuple((ell, m, _coset_index(d, ell, m)) for ell, m in minors.items())
    return _LINKS[d]


def _union_counts(family: str, u: DiagramUnion) -> Sequence[int]:
    """Phi of a union whose components are memoised: their product."""
    counts = [_FACE_COUNTS[family, comp] for comp in u]
    return reduce(convolve, counts) if counts else (1,)


def link_sum(family: str, d: DynkinDiagram, weight: Callable[[int, int], int]) -> list[int]:
    """Sum over the vertices ``ell`` of ``d`` of ``weight(ell, [W(d) :
    W(d minus ell)])`` times the Phi of d minus ell, as ascending counts,
    after checking the work, estimated from the rank, against the engine
    budget and memoising the Phi of every connected diagram below ``d``.

    >>> link_sum(PREPROJECTIVE, DynkinDiagram("A", 2), lambda ell, cosets: cosets)
    [6, 12]
    """
    check_family(family)
    if d.rank**4 > ENGINE_BUDGET:
        raise UsageError(
            f"the {family} link recursion of {d} makes up to {d.rank**4:,}"
            f" coefficient products, over the engine budget of {ENGINE_BUDGET:,}"
        )
    table = _link_table(d)
    _fill(family, [comp for _, minor, _ in table for comp in minor])
    total = [0] * d.rank
    for ell, minor, cosets in table:
        w = weight(ell, cosets)
        for k, count in enumerate(_union_counts(family, minor)):
            total[k] += w * count
    return total


def _link_recursion(family: str, d: DynkinDiagram) -> tuple[int, ...]:
    """Phi of ``d``, from the link sum weighted by N_ell."""
    if family == PREPROJECTIVE:
        scale, weight = 1, lambda ell, cosets: cosets
    else:
        path_weight = d.coxeter_number() + 2
        scale, weight = 2, lambda ell, cosets: path_weight
    faces = f"faces of the {family} complex of {d}"
    sums = enumerate(link_sum(family, d, weight), 1)
    return (1, *(exact_quotient(s, scale * k, lambda: f"{k}-{faces}") for k, s in sums))


def _fill(family: str, diagrams: list[DynkinDiagram]) -> None:
    """Memoise the Phi of these connected diagrams and of all below them."""
    # the minors of a memoised diagram are memoised, so collect the rest
    # and fill them in by rank: each link is there when read
    todo = {m for m in diagrams if (family, m) not in _FACE_COUNTS}
    stack = list(todo)
    while stack:
        top = stack.pop()
        below = {m for _, minor, _ in _link_table(top) for m in minor}
        below = {m for m in below - todo if (family, m) not in _FACE_COUNTS}
        stack += below
        todo |= below
    for minor in sorted(todo, key=lambda c: c.rank):
        _FACE_COUNTS[family, minor] = _link_recursion(family, minor)


def _face_counts(family: str, u) -> Sequence[int]:
    check_family(family)
    u = as_union(u)
    # the largest first, so that a refusal comes before any work
    for comp in sorted(u, key=lambda c: -c.rank):
        if (family, comp) not in _FACE_COUNTS:
            _FACE_COUNTS[family, comp] = _link_recursion(family, comp)
    return _union_counts(family, u)


def face_polynomial(family: str, u) -> Polynomial:
    """Face-count polynomial of the complex of a diagram or union: the
    coefficient of t^(rank - k) counts the k-element faces.

    >>> str(face_polynomial(PATH, DynkinDiagram("A", 3)))
    't^3 + 9t^2 + 21t + 14'
    """
    return Polynomial(_face_counts(family, u)[::-1])
