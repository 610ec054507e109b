"""The formula engine: dimension and face-count polynomials per algebra.

For both algebra families the dimension polynomial is assembled the same
way: group the indecomposables into per-vertex orbits, multiply each
orbit's dimension total by the face-count polynomial of the diagram with
that vertex deleted, and sum over vertices,

    d = sum over vertices l of Dim_l * P(diagram minus l; t+1),

where P is the descent polynomial for the preprojective family and the
Narayana polynomial for the path family; P(.; t+1) is the face-count
polynomial that ``weyl.face_polynomial`` computes by the link recursion.
``d_polynomial`` reads the link counts from ``weyl.links`` and sums them
into one list of integers.  The orbit total is one height formula for
every type: with ht(w_l) the height of the fundamental weight at l (the
row-l sum of the inverse Cartan matrix C^-1), Dim_l = [W : W(diagram
minus l)] * ht(w_l) for the preprojective family and 2 * ht(w_l) for the
path family.  ``dynkin.weight_height`` gives det(C) ht(w_l), the row-l
sum of the adjugate of C, so Dim_l is one exact division by det C.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from . import tables, weyl
from .dynkin import DiagramUnion, DynkinDiagram, cartan_determinant, delete_vertex, weight_height
from .errors import UsageError, exact_quotient
from .polynomials import Polynomial
from .weyl import PATH, PREPROJECTIVE


@dataclass(frozen=True)
class AlgebraSpec:
    """A family tag plus a connected Dynkin diagram."""

    family: str
    diagram: DynkinDiagram

    def __post_init__(self):
        if self.family not in (PREPROJECTIVE, PATH):
            raise UsageError(f"family must be {PREPROJECTIVE!r} or {PATH!r}")

    def __str__(self) -> str:
        return f"{self.family} {self.diagram}"


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
    d.check_vertex(ell)
    if family == PREPROJECTIVE:
        factor = weyl.coset_count(d, ell)
    elif family == PATH:
        factor = 2
    else:
        raise UsageError(f"family must be {PREPROJECTIVE!r} or {PATH!r}")
    return _times_height(factor, d, ell, cartan_determinant(d))


def _times_height(factor: int, d: DynkinDiagram, ell: int, det: int) -> int:
    """factor * ht(w_ell), given det = det C: one checked division of
    factor * weight_height(d, ell), which is factor * det(C) ht(w_ell)."""
    total = factor * weight_height(d, ell)
    return exact_quotient(total, det, lambda: f"{factor} ht(w_{ell}) of {d}")


def d_polynomial(spec: AlgebraSpec) -> Polynomial:
    """Dimension polynomial of the algebra, assembled by the link recursion.

    >>> from taupoly.dynkin import parse_diagram
    >>> str(d_polynomial(AlgebraSpec("preprojective", parse_diagram("A3"))))
    '24t^2 + 120t + 120'
    >>> str(d_polynomial(AlgebraSpec("path", parse_diagram("A3"))))
    '10t^2 + 46t + 46'
    """
    d = spec.diagram
    det = cartan_determinant(d)
    # Phi_k of a link is the coefficient of t^(n - 1 - k) in its face polynomial
    top = d.rank - 1
    out = [0] * d.rank
    for ell, cosets, phi in weyl.links(spec.family, d):
        # Dim_ell, with the factor orbit_dim_total takes
        total = _times_height(cosets if spec.family == PREPROJECTIVE else 2, d, ell, det)
        for k, count in enumerate(phi):
            out[top - k] += total * count
    return Polynomial(out)


def f_polynomial(spec: AlgebraSpec) -> Polynomial:
    """Face-count polynomial of the algebra's complex of rigid objects."""
    return weyl.face_polynomial(spec.family, spec.diagram)


def h_polynomial(spec: AlgebraSpec) -> Polynomial:
    """Descent polynomial (preprojective family) or Narayana polynomial
    (path family) of the full diagram."""
    return f_polynomial(spec).shifted(-1)


def aggregate_coefficients(poly: Polynomial, n: int) -> tuple[int, int]:
    """(leading, constant) coefficients of a rank-n dimension polynomial.

    The leading coefficient sums the dimensions of all indecomposable
    rigid objects; the constant term sums the dimensions of the maximal
    ones.
    """
    return poly.coefficient(n - 1), poly.coefficient(0)


def aggregate_dims(spec: AlgebraSpec) -> tuple[int, int]:
    """The aggregates of the engine's dimension polynomial."""
    return aggregate_coefficients(d_polynomial(spec), spec.diagram.rank)


def _union_maximal_count(spec: AlgebraSpec, union: DiagramUnion) -> int:
    total = 1
    for comp in union:
        if spec.family == PREPROJECTIVE:
            total *= comp.group_order()
        else:
            total *= comp.catalan_count()
    return total


def aggregate_totals_closed(spec: AlgebraSpec) -> tuple[int, int]:
    """The aggregates by pure counting, bypassing polynomial assembly.

    The per-vertex polynomial factors are monic with constant term equal
    to the count of maximal objects of the deleted diagram, so the
    leading coefficient is the plain sum of orbit totals and the constant
    term weights each by that count.  Agreement with the polynomial route
    is asserted in the test suite.
    """
    d = spec.diagram
    leading = 0
    constant = 0
    for ell in d.vertices:
        total = orbit_dim_total(spec.family, d, ell)
        leading += total
        constant += total * _union_maximal_count(spec, delete_vertex(d, ell))
    return leading, constant


def expected_aggregates(spec: AlgebraSpec) -> tuple[int, int] | None:
    """Closed forms for the aggregates where the families admit one.

    Returns None for type E, where only the published grids apply.  The
    second path-D value is the sum over vertices of (projective
    dimension) * (Catalan count of the deleted diagram).
    """
    n = spec.diagram.rank
    fam = spec.diagram.family
    if spec.family == PREPROJECTIVE and fam == "A":
        return (
            n * (n + 1) * 2 ** (n - 2) if n >= 2 else n * (n + 1) // 2,
            factorial(n + 2) * comb(n + 1, 2) // 6,
        )
    if spec.family == PREPROJECTIVE and fam == "D":
        first = n * (n - 1) * 2 ** (n - 2) + sum(
            (n + ell - 1) * (n - ell) * 2 ** (n - ell - 1) * comb(n, ell)
            for ell in range(2, n)
        )
        second = 2 * n * (n - 1) * 2 ** (n - 3) * factorial(n) + sum(
            (n + ell - 1) * (n - ell) * 2 ** (n - 2) * factorial(n)
            for ell in range(2, n)
        )
        return first, second
    if spec.family == PATH and fam == "A":
        return (
            n * (n + 1) * (n + 2) // 6,
            4 ** (n + 1) - (n + 2) * DynkinDiagram("A", n + 1).catalan_count(),
        )
    if spec.family == PATH and fam == "D":
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


def published_row(spec: AlgebraSpec) -> tuple[int, tuple[int, ...]] | None:
    """The number of the published table of the spec's family and type,
    with its row at the spec's rank; None if no table lists that rank."""
    for k, (family, diagram_family, published) in tables.TABLES.items():
        if (family, diagram_family) == (spec.family, spec.diagram.family):
            row = published.get(spec.diagram.rank)
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
    specs = {n: AlgebraSpec(family, DynkinDiagram(diagram_family, n)) for n in ranks}
    return {n: table_row(d_polynomial(spec), n) for n, spec in specs.items()}
