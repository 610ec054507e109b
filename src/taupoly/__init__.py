"""Exact dimension and face-count polynomials of Dynkin-type path and
doubled-quiver (preprojective) algebras, with brute-force oracles and
generating-function identity checks."""

from .dynkin import DiagramUnion, DynkinDiagram, delete_vertex, parse_diagram, parse_union
from .formulas import PATH, PREPROJECTIVE, d_polynomial, f_polynomial, h_polynomial, reproduce_table
from .polynomials import Polynomial
from .series import TruncatedSeries
from .weyl import eulerian_poly, narayana_poly

__all__ = [
    "DiagramUnion",
    "DynkinDiagram",
    "PATH",
    "PREPROJECTIVE",
    "Polynomial",
    "TruncatedSeries",
    "d_polynomial",
    "delete_vertex",
    "eulerian_poly",
    "f_polynomial",
    "h_polynomial",
    "narayana_poly",
    "parse_diagram",
    "parse_union",
    "reproduce_table",
]

__version__ = "0.1.0"
