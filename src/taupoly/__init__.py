"""Exact dimension and face-count polynomials of Dynkin-type path and
doubled-quiver (preprojective) algebras, with brute-force oracles and
generating-function identity checks."""

from .dynkin import DiagramUnion, DynkinDiagram, delete_vertex, parse_diagram, parse_union
from .formulas import PATH, PREPROJECTIVE, d_polynomial, f_polynomial, h_polynomial, reproduce_table
from .polynomials import Polynomial
from .series import TruncatedSeries

__all__ = [
    "DiagramUnion",
    "DynkinDiagram",
    "PATH",
    "PREPROJECTIVE",
    "Polynomial",
    "TruncatedSeries",
    "d_polynomial",
    "delete_vertex",
    "f_polynomial",
    "h_polynomial",
    "parse_diagram",
    "parse_union",
    "reproduce_table",
]

__version__ = "0.1.0"
