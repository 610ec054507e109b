"""The formula engine: dimension and face-count polynomials per algebra.

An algebra is named by its family, ``PREPROJECTIVE`` or ``PATH``, and
its Dynkin diagram: every function here that takes a family takes
``(family, diagram)``, in the order of ``weyl.face_polynomial``, and
``weyl.check_family`` refuses any other family.  For both families the
dimension polynomial is assembled the same way: group the
indecomposables into per-vertex orbits, multiply each orbit's dimension
total by the face-count polynomial of the diagram with that vertex
deleted, and sum over vertices,

    d = sum over vertices l of Dim_l * P(diagram minus l; t+1),

where P is the descent polynomial for the preprojective family and the
Narayana polynomial for the path family; P(.; t+1) is the face-count
polynomial that ``weyl.face_polynomial`` computes by the link recursion.
``d_polynomial`` is ``weyl.link_sum`` with the weights Dim_l: the face
counts are the same sum with the weights N_l.  The orbit total is one
height formula for every type: with ht(w_l) the height of the
fundamental weight at l (the row-l sum of the inverse Cartan matrix
C^-1), Dim_l = [W : W(diagram minus l)] * ht(w_l) for the preprojective
family and 2 * ht(w_l) for the path family, a factor written once, in
``_orbit_dim``.  ``dynkin.weight_height`` gives det(C) ht(w_l), the
row-l sum of the adjugate of C, so Dim_l is one exact division by det C.
"""

from __future__ import annotations

from math import comb, factorial, prod

from . import tables, weyl
from .dynkin import DynkinDiagram, cartan_determinant, delete_vertex, weight_height
from .errors import UsageError, exact_quotient
from .polynomials import Polynomial
from .weyl import PATH, PREPROJECTIVE, check_family

# the face-count polynomial of the algebra's complex of rigid objects
f_polynomial = weyl.face_polynomial


def orbit_dim_total(family: str, d: DynkinDiagram, ell: int) -> int:
    """Dimension total of the per-vertex orbit of indecomposables.

    Preprojective family: the sum of dimensions of all rigid submodules
    of the projective at ``ell``, [W : W(d minus ell)] * ht(w_ell).  Path
    family: the dimension of the preprojective projective itself, i.e.
    the translate-orbit total, 2 * ht(w_ell).

    >>> orbit_dim_total(PREPROJECTIVE, DynkinDiagram("D", 4), 2)
    120
    >>> orbit_dim_total(PATH, DynkinDiagram("D", 4), 2)
    10
    """
    check_family(family)
    d.check_vertex(ell)
    return _orbit_dim(family, d, ell, cartan_determinant(d))


def _orbit_dim(family: str, d: DynkinDiagram, ell: int, det: int, cosets: int = 0) -> int:
    """Dim_ell = factor * ht(w_ell), given det = det C: the factor is
    [W : W(d minus ell)] (``cosets``, counted here if 0) for the
    preprojective family and 2 for the path family, and Dim_ell is one
    checked division of factor * weight_height(d, ell), which is
    factor * det(C) ht(w_ell)."""
    factor = (cosets or weyl.coset_count(d, ell)) if family == PREPROJECTIVE else 2
    total = factor * weight_height(d, ell)
    return exact_quotient(total, det, lambda: f"{factor} ht(w_{ell}) of {d}")


def d_polynomial(family: str, d: DynkinDiagram) -> Polynomial:
    """Dimension polynomial of the algebra, assembled by the link recursion.

    >>> from taupoly.dynkin import parse_diagram
    >>> str(d_polynomial(PREPROJECTIVE, parse_diagram("A3")))
    '24t^2 + 120t + 120'
    >>> str(d_polynomial(PATH, parse_diagram("A3")))
    '10t^2 + 46t + 46'
    """
    det = cartan_determinant(d)
    # Phi_k of a link is the coefficient of t^(n - 1 - k) in its face polynomial
    dims = weyl.link_sum(family, d, lambda ell, cosets: _orbit_dim(family, d, ell, det, cosets))
    return Polynomial(dims[::-1])


def h_polynomial(family: str, u) -> Polynomial:
    """Descent polynomial (preprojective family) or Narayana polynomial
    (path family) of a diagram or union: the h-polynomial of its complex.

    >>> str(h_polynomial(PREPROJECTIVE, DynkinDiagram("A", 3)))
    't^3 + 11t^2 + 11t + 1'
    >>> str(h_polynomial(PATH, DynkinDiagram("A", 3)))
    't^3 + 6t^2 + 6t + 1'
    """
    return f_polynomial(family, u).shifted(-1)


def aggregate_coefficients(poly: Polynomial, n: int) -> tuple[int, int]:
    """(leading, constant) coefficients of a rank-n dimension polynomial.

    The leading coefficient sums the dimensions of all indecomposable
    rigid objects; the constant term sums the dimensions of the maximal
    ones.
    """
    return poly.coefficient(n - 1), poly.coefficient(0)


def aggregate_totals_closed(family: str, d: DynkinDiagram) -> tuple[int, int]:
    """The aggregates by pure counting, bypassing polynomial assembly.

    The per-vertex polynomial factors are monic with constant term equal
    to the count of maximal objects of the deleted diagram, so the
    leading coefficient is the plain sum of orbit totals and the constant
    term weights each by that count.  Agreement with the polynomial route
    is asserted in the test suite.
    """
    leading = 0
    constant = 0
    for ell in d.vertices:
        total = orbit_dim_total(family, d, ell)
        leading += total
        maximal = (
            comp.group_order() if family == PREPROJECTIVE else comp.catalan_count()
            for comp in delete_vertex(d, ell)
        )
        constant += total * prod(maximal)
    return leading, constant


def expected_aggregates(family: str, d: DynkinDiagram) -> tuple[int, int] | None:
    """Closed forms for the aggregates where the families admit one.

    Returns None for type E, where only the published grids apply.  The
    second path-D value is the sum over vertices of (projective
    dimension) * (Catalan count of the deleted diagram).
    """
    check_family(family)
    n = d.rank
    fam = d.family
    if family == PREPROJECTIVE and fam == "A":
        return (
            n * (n + 1) * 2 ** (n - 2) if n >= 2 else n * (n + 1) // 2,
            factorial(n + 2) * comb(n + 1, 2) // 6,
        )
    if family == PREPROJECTIVE and fam == "D":
        first = n * (n - 1) * 2 ** (n - 2) + sum(
            (n + ell - 1) * (n - ell) * 2 ** (n - ell - 1) * comb(n, ell)
            for ell in range(2, n)
        )
        second = 2 * n * (n - 1) * 2 ** (n - 3) * factorial(n) + sum(
            (n + ell - 1) * (n - ell) * 2 ** (n - 2) * factorial(n)
            for ell in range(2, n)
        )
        return first, second
    if family == PATH and fam == "A":
        return (
            n * (n + 1) * (n + 2) // 6,
            4 ** (n + 1) - (n + 2) * DynkinDiagram("A", n + 1).catalan_count(),
        )
    if family == PATH and fam == "D":
        first = n * (n - 1) * (2 * n - 1) // 3
        # the A part of D_n minus ell is empty at ell = n - 1, with count 1
        second = n * (n - 1) * DynkinDiagram("A", n - 1).catalan_count() + sum(
            (n - ell) * (n + ell - 1) * _d_catalan_count(ell)
            * (DynkinDiagram("A", n - ell - 1).catalan_count() if ell < n - 1 else 1)
            for ell in range(2, n)
        )
        return first, second
    return None


def _d_catalan_count(ell: int) -> int:
    """The W-Catalan number of D_ell, whose closed form also gives those
    of A1xA1 and A3 at ell = 2 and 3."""
    return (3 * ell - 2) * comb(2 * ell - 1, ell - 1) // (2 * ell - 1)


def table_row(poly: Polynomial, n: int) -> tuple[int, ...]:
    """A rank-n dimension polynomial in the layout of the published grids:
    d_0..d_(n-1) with d_j the coefficient of t^(n-1-j)."""
    return tuple(poly.coefficient(n - 1 - j) for j in range(n))


def published_row(family: str, d: DynkinDiagram) -> tuple[int, tuple[int, ...]] | None:
    """The number of the published table of the family and type, with its
    row at the diagram's rank; None if no table lists that rank."""
    check_family(family)
    for k, (table_family, diagram_family, published) in tables.TABLES.items():
        if (table_family, diagram_family) == (family, d.family):
            row = published.get(d.rank)
            return None if row is None else (k, row)
    return None


def golden_table(k: int) -> dict[int, tuple[int, ...]]:
    if k not in tables.TABLES:
        raise UsageError(f"table number must be 1..6, got {k}")
    return dict(tables.TABLES[k][2])


def reproduce_table(k: int) -> dict[int, tuple[int, ...]]:
    """Recompute a published grid from the formula engine, at the ranks
    the published grid lists."""
    ranks = sorted(golden_table(k))
    family, diagram_family, _ = tables.TABLES[k]
    return {n: table_row(d_polynomial(family, DynkinDiagram(diagram_family, n)), n) for n in ranks}
