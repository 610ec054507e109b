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
stack.

The brute-force routes the tests compare these with are in ``oracles``;
nothing here calls them.
"""

from __future__ import annotations

from math import prod

from .dynkin import DynkinDiagram, as_union, delete_vertex
from .errors import ConsistencyError, UsageError
from .polynomials import ONE, Polynomial

PREPROJECTIVE = "preprojective"
PATH = "path"


def _exact_quotient(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ConsistencyError(f"{what}: {numerator} is not divisible by {denominator}")
    return quotient


def coset_count(d: DynkinDiagram, ell: int) -> int:
    """Index of the parabolic subgroup W(d minus ell) in W(d).

    >>> coset_count(DynkinDiagram("A", 3), 2)
    6
    """
    parabolic = prod(comp.group_order() for comp in delete_vertex(d, ell))
    return _exact_quotient(d.group_order(), parabolic, f"[W({d}) : W({d} minus {ell})]")


# (family, connected A/D/E diagram) -> Phi, for every diagram up to the
# largest rank asked for, so at most six keys per rank
_FACE_COUNTS: dict[tuple[str, DynkinDiagram], Polynomial] = {}


def _link_recursion(family: str, d: DynkinDiagram) -> Polynomial:
    """Phi of ``d``, reading the Phi of each link from the memo."""
    if family == PREPROJECTIVE:
        weights, scale = [coset_count(d, ell) for ell in d.vertices], 1
    elif family == PATH:
        weights, scale = [d.coxeter_number() + 2] * d.rank, 2
    else:
        raise UsageError(f"family must be {PREPROJECTIVE!r} or {PATH!r}")
    links = [_face_counts(family, delete_vertex(d, ell)) for ell in d.vertices]
    phi = [1]
    for k in range(1, d.rank + 1):
        total = sum(w * link.coefficient(k - 1) for w, link in zip(weights, links))
        phi.append(_exact_quotient(total, scale * k, f"{k}-faces of the {family} complex of {d}"))
    return Polynomial(phi)


def _face_counts_connected(family: str, d: DynkinDiagram) -> Polynomial:
    if (family, d) not in _FACE_COUNTS:
        # the minors of a memoised diagram are memoised, so collect the
        # rest and fill them in by rank: each link is there when read
        todo, stack = {d}, [d]
        while stack:
            top = stack.pop()
            below = {m for ell in top.vertices for m in delete_vertex(top, ell)}
            below = {m for m in below - todo if (family, m) not in _FACE_COUNTS}
            stack += below
            todo |= below
        for minor in sorted(todo, key=lambda c: c.rank):
            _FACE_COUNTS[family, minor] = _link_recursion(family, minor)
    return _FACE_COUNTS[family, d]


def _face_counts(family: str, u) -> Polynomial:
    result = ONE
    for comp in as_union(u):
        result = result * _face_counts_connected(family, comp)
    return result


def face_polynomial(family: str, u) -> Polynomial:
    """Face-count polynomial of the complex of a diagram or union: the
    coefficient of t^(rank - k) counts the k-element faces.

    >>> str(face_polynomial(PATH, DynkinDiagram("A", 3)))
    't^3 + 9t^2 + 21t + 14'
    """
    return Polynomial(reversed(_face_counts(family, u).coeffs))


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
