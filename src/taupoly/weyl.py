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

The face polynomial is Phi with its coefficients reversed, and its shift
by -1 is the h-polynomial: the descent polynomial of the Weyl group
(preprojective) or the W-Narayana polynomial (path).  Every division is
checked to be exact, and a failure raises ``ConsistencyError``.  The
connected diagrams below a diagram are filled in by rank, smallest
first, so the recursion is a loop and no rank overflows the Python
stack.  Phi is kept as a tuple of Python integers, multiplied by
``polynomials.convolve``, and becomes a ``Polynomial`` only when it
leaves the engine.  For a diagram of rank n the recursion makes fewer
than n^4 coefficient products; n^4 is checked against
``errors.ENGINE_BUDGET`` before any work.

A family is ``PREPROJECTIVE`` or ``PATH``.  ``check_family`` is the one
check of it: ``face_polynomial``, ``links`` and the ``formulas`` entries
call it before any memo entry is written.

The brute-force routes the tests compare these with are in ``oracles``;
nothing here calls them.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import Iterator, Sequence

from .dynkin import DiagramUnion, DynkinDiagram, as_union, delete_vertex
from .errors import ENGINE_BUDGET, RankTooLarge, UsageError, exact_quotient
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
    """Index of the parabolic subgroup W(d minus ell) in W(d).

    >>> coset_count(DynkinDiagram("A", 3), 2)
    6
    """
    return _coset_index(d, ell, delete_vertex(d, ell))


# (family, connected A/D/E diagram) -> Phi as ascending counts, for every
# diagram up to the largest rank asked for, so at most six keys per rank
_FACE_COUNTS: dict[tuple[str, DynkinDiagram], tuple[int, ...]] = {}


def _union_counts(family: str, u: DiagramUnion) -> Sequence[int]:
    """Phi of a union whose components are memoised: their product."""
    counts = [_FACE_COUNTS[family, comp] for comp in u]
    return reduce(convolve, counts) if counts else (1,)


def _links(family: str, d: DynkinDiagram) -> Iterator[tuple[int, int, Sequence[int]]]:
    """``(ell, [W(d) : W(d minus ell)], Phi of d minus ell)`` for each
    vertex ``ell`` of ``d``, reading the Phi of its components from the
    memo; one deletion serves both."""
    for ell in d.vertices:
        minor = delete_vertex(d, ell)
        yield ell, _coset_index(d, ell, minor), _union_counts(family, minor)


def _link_recursion(family: str, d: DynkinDiagram) -> tuple[int, ...]:
    """Phi of ``d``, reading the Phi of each link from the memo."""
    if family == PREPROJECTIVE:
        scale = 1
    else:
        scale, path_weight = 2, d.coxeter_number() + 2
    phi = [1] + [0] * d.rank
    for _, cosets, link in _links(family, d):
        weight = cosets if family == PREPROJECTIVE else path_weight
        for k, count in enumerate(link, 1):
            phi[k] += weight * count
    faces = f"faces of the {family} complex of {d}"
    for k in range(1, d.rank + 1):
        phi[k] = exact_quotient(phi[k], scale * k, lambda: f"{k}-{faces}")
    return tuple(phi)


def _fill(family: str, d: DynkinDiagram) -> None:
    """Memoise the Phi of ``d`` and of every connected diagram below it.
    The work, estimated from the rank, is checked against the engine
    budget before any is done."""
    if (family, d) in _FACE_COUNTS:
        return
    if d.rank**4 > ENGINE_BUDGET:
        raise RankTooLarge(
            f"the {family} link recursion of {d} makes up to {d.rank**4:,}"
            f" coefficient products, over the engine budget of {ENGINE_BUDGET:,}"
        )
    # the minors of a memoised diagram are memoised, so collect the rest
    # and fill them in by rank: each link is there when read
    todo, stack = {d}, [d]
    while stack:
        top = stack.pop()
        below = {m for ell in top.vertices for m in delete_vertex(top, ell)}
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
        _fill(family, comp)
    return _union_counts(family, u)


def links(family: str, d: DynkinDiagram) -> list[tuple[int, int, Sequence[int]]]:
    """``(ell, [W(d) : W(d minus ell)], Phi of d minus ell)`` for each
    vertex ``ell`` of ``d``, Phi as ascending counts."""
    check_family(family)
    _fill(family, d)
    return list(_links(family, d))


def face_polynomial(family: str, u) -> Polynomial:
    """Face-count polynomial of the complex of a diagram or union: the
    coefficient of t^(rank - k) counts the k-element faces.

    >>> str(face_polynomial(PATH, DynkinDiagram("A", 3)))
    't^3 + 9t^2 + 21t + 14'
    """
    return Polynomial(_face_counts(family, u)[::-1])


def eulerian_poly(u) -> Polynomial:
    """Descent-count polynomial of a diagram or union: the h-polynomial of
    its Coxeter complex.

    >>> from taupoly.dynkin import parse_diagram
    >>> str(eulerian_poly(parse_diagram("A3")))
    't^3 + 11t^2 + 11t + 1'
    """
    return face_polynomial(PREPROJECTIVE, u).shifted(-1)


def narayana_poly(u) -> Polynomial:
    """Narayana polynomial of a diagram or union: the h-polynomial of its
    cluster complex.

    >>> from taupoly.dynkin import parse_diagram
    >>> str(narayana_poly(parse_diagram("A3")))
    't^3 + 6t^2 + 6t + 1'
    """
    return face_polynomial(PATH, u).shifted(-1)
