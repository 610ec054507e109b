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
checked to be exact, and a failure raises ``ConsistencyError``.

Everything else here is an oracle, kept independent of the engine for
the tests and the ``--oracle`` routes:

* descent counts by enumerating permutations (type A) and even-signed
  permutations (type D), by the classical triangle recurrences, and by
  breadth-first traversal of the regular-weight orbit (every type);
* Narayana polynomials by the closed binomial formula (type A) and by
  walking the absolute-order interval down from a Coxeter element,
  visiting only its Catalan(W) elements; the tests check the walk against
  whole-group enumeration with the codimension formula for reflection
  length.

Each oracle first works out from the diagram how many elements it will
visit and raises ``RankTooLarge`` over ``errors.ORACLE_BUDGET``, as the
E8 orbit (696,729,600 elements) does; the engine needs no oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import _orbits
from ._linalg import integer_rank
from .dynkin import DynkinDiagram, as_union, delete_vertex
from .errors import ConsistencyError, UsageError, check_oracle_budget
from .polynomials import ONE, Polynomial

PREPROJECTIVE = "preprojective"
PATH = "path"


def cartan_matrix(d: DynkinDiagram) -> np.ndarray:
    """Cartan matrix in the diagram's vertex order (symmetric, ADE)."""
    verts = d.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = d.rank
    C = 2 * np.eye(n, dtype=np.int64)
    for a, b in d.edges:
        C[index[a], index[b]] = -1
        C[index[b], index[a]] = -1
    return C


# ---------------------------------------------------------------------------
# The engine: link recursion for the face counts
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def _face_counts_connected(family: str, d: DynkinDiagram) -> Polynomial:
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


# ---------------------------------------------------------------------------
# Descent statistics
# ---------------------------------------------------------------------------


def descent_count_permutation(w: tuple[int, ...]) -> int:
    """Number of positions i with w(i) > w(i+1)."""
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def descent_count_signed(w: tuple[int, ...]) -> int:
    """Type D descent count: positional descents plus one if w(1)+w(2) < 0."""
    des = sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    if len(w) >= 2 and w[0] + w[1] < 0:
        des += 1
    return des


@lru_cache(maxsize=None)
def _eulerian_sym(m: int) -> tuple[int, ...]:
    """Descent distribution over the symmetric group on m letters."""
    if m <= 1:
        return (1,)
    prev = _eulerian_sym(m - 1)

    def at(k: int) -> int:
        return prev[k] if 0 <= k < len(prev) else 0

    return tuple((k + 1) * at(k) + (m - k) * at(k - 1) for k in range(m))


@lru_cache(maxsize=None)
def _eulerian_hyperoctahedral(m: int) -> tuple[int, ...]:
    """Descent distribution over all signed permutations of m letters."""
    if m == 0:
        return (1,)
    prev = _eulerian_hyperoctahedral(m - 1)

    def at(k: int) -> int:
        return prev[k] if 0 <= k < len(prev) else 0

    return tuple((2 * k + 1) * at(k) + (2 * (m - k) + 1) * at(k - 1) for k in range(m + 1))


def _eulerian_even_signed(m: int) -> tuple[int, ...]:
    """Descent distribution over even-signed permutations of m letters.

    Subtracting m*2^(m-1)*t times the symmetric-group distribution from the
    full signed distribution is the classical identity relating the two;
    it is validated against direct enumeration in the test suite.
    """
    full = _eulerian_hyperoctahedral(m)
    sym = _eulerian_sym(m - 1) if m >= 1 else (1,)
    corr = m * 2 ** (m - 1)

    def at(k: int) -> int:
        return sym[k] if 0 <= k < len(sym) else 0

    out = [full[k] - corr * at(k - 1) for k in range(m + 1)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _descent_oracle_cost(d: DynkinDiagram) -> tuple[str, int]:
    """The descent oracle ``eulerian_poly`` runs on ``d``, and the number
    of group elements it visits."""
    route = "weight orbit" if d.family == "E" else "descent enumeration"
    return f"{d} {route}", d.group_order()


def eulerian_a_by_enumeration(rank: int) -> Polynomial:
    """Oracle: descent counts over all permutations of rank+1 letters."""
    if rank <= 0:
        return ONE
    check_oracle_budget(*_descent_oracle_cost(DynkinDiagram("A", rank)))
    hist = [0] * (rank + 1)
    for w in itertools.permutations(range(1, rank + 2)):
        hist[descent_count_permutation(w)] += 1
    return Polynomial(hist)


def eulerian_d_by_enumeration(rank: int) -> Polynomial:
    """Oracle: descent counts over signed permutations with even sign count."""
    check_oracle_budget(*_descent_oracle_cost(DynkinDiagram("D", rank)))
    hist = [0] * (rank + 1)
    base = range(1, rank + 1)
    for perm in itertools.permutations(base):
        for mask in range(1 << rank):
            if bin(mask).count("1") % 2:
                continue
            w = tuple(-perm[i] if (mask >> i) & 1 else perm[i] for i in range(rank))
            hist[descent_count_signed(w)] += 1
    return Polynomial(hist)


def eulerian_by_orbit(d: DynkinDiagram) -> Polynomial:
    """Descent distribution via traversal of the regular-weight orbit.

    Works for every family; it is the only route for type E.  The orbit
    has one point per group element, so E8 (696,729,600) is over the
    oracle budget.
    """
    check_oracle_budget(f"{d} weight orbit", d.group_order())
    return Polynomial(_orbits.descent_distribution(cartan_matrix(d)))


def eulerian_poly(u, *, oracle: bool = False) -> Polynomial:
    """Descent-count polynomial of a diagram or union: the h-polynomial of
    its Coxeter complex.

    ``oracle`` multiplies brute-force counts over the components instead:
    enumeration for types A and D, the weight orbit for type E, once every
    component is within the oracle budget.

    >>> from taupoly.dynkin import parse_diagram
    >>> str(eulerian_poly(parse_diagram("A3")))
    't^3 + 11t^2 + 11t + 1'
    """
    if not oracle:
        return face_polynomial(PREPROJECTIVE, u).shifted(-1)
    union = as_union(u)
    for comp in union:
        check_oracle_budget(*_descent_oracle_cost(comp))
    result = ONE
    for comp in union:
        if comp.family == "A":
            result = result * eulerian_a_by_enumeration(comp.rank)
        elif comp.family == "D":
            result = result * eulerian_d_by_enumeration(comp.rank)
        else:
            result = result * eulerian_by_orbit(comp)
    return result


# ---------------------------------------------------------------------------
# Reflection length and the absolute-order interval
# ---------------------------------------------------------------------------


def absolute_length(matrix) -> int:
    """Reflection length of a group element given as an integer matrix.

    Equals the codimension of the fixed space, computed as the exact
    integer rank of (m - I).
    """
    rows = [list(map(int, row)) for row in matrix]
    n = len(rows)
    for i in range(n):
        rows[i][i] -= 1
    return integer_rank(rows)


def default_coxeter_order(d: DynkinDiagram) -> tuple[int, ...]:
    """Vertices in two-coloring order: an admissible order for the
    alternating orientation (every vertex a source or a sink)."""
    colors = {d.vertices[0]: 0}
    adjacency: dict[int, list[int]] = {v: [] for v in d.vertices}
    for a, b in d.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    stack = [d.vertices[0]]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in colors:
                colors[w] = 1 - colors[v]
                stack.append(w)
    evens = sorted(v for v in d.vertices if colors[v] == 0)
    odds = sorted(v for v in d.vertices if colors[v] == 1)
    return tuple(evens + odds)


def coxeter_element_matrix(d: DynkinDiagram, order: tuple[int, ...] | None = None) -> np.ndarray:
    """Matrix of the product of all simple reflections in the given order.

    The first vertex in ``order`` acts last (word read left to right).
    """
    if order is None:
        order = default_coxeter_order(d)
    if sorted(order) != sorted(d.vertices):
        raise ValueError(f"order {order} is not a permutation of the vertices of {d}")
    index = {v: i for i, v in enumerate(d.vertices)}
    mats = _orbits.simple_reflection_matrices(cartan_matrix(d))
    out = np.eye(d.rank, dtype=np.int64)
    for v in order:
        out = out @ mats[index[v]]
    return out


def _walk_cost(d: DynkinDiagram) -> tuple[str, int]:
    return f"{d} interval walk", d.catalan_count() * d.positive_root_count()


def narayana_oracle(
    d: DynkinDiagram,
    *,
    coxeter_order: tuple[int, ...] | None = None,
    progress=None,
) -> Polynomial:
    """Reflection-length distribution over the interval below a Coxeter element.

    Walks the absolute-order interval [id, c] down from c, one reflection
    length at a time, so only its Catalan(W) elements are visited (see
    ``_orbits.interval_walk``), each tested against every positive root;
    that product is checked against the oracle budget, which D10 and A11
    exceed.  ``progress``, if given, is called after each level with the
    number of elements visited so far.  The tests check the walk against
    the whole-group membership rule l(w) + l(w^{-1}c) = rank on small
    groups.
    """
    check_oracle_budget(*_walk_cost(d))
    cartan = cartan_matrix(d)
    cox = coxeter_element_matrix(d, coxeter_order)
    hist = _orbits.interval_walk(cartan, cox, progress=progress)
    return Polynomial(hist)


@lru_cache(maxsize=None)
def narayana_a(rank: int) -> Polynomial:
    """Closed form for the type A Narayana polynomial.

    Coefficient j is binom(rank+1, j) * binom(rank+1, j+1) / (rank+1).
    """
    if rank <= 0:
        return ONE
    m = rank + 1
    return Polynomial([comb(m, j) * comb(m, j + 1) // m for j in range(rank + 1)])


def narayana_poly(u, *, oracle: bool = False) -> Polynomial:
    """Narayana polynomial of a diagram or union: the h-polynomial of its
    cluster complex.

    ``oracle`` multiplies the interval walks over the components instead,
    once every component is within the oracle budget.

    >>> from taupoly.dynkin import parse_diagram
    >>> str(narayana_poly(parse_diagram("A3")))
    't^3 + 6t^2 + 6t + 1'
    """
    if not oracle:
        return face_polynomial(PATH, u).shifted(-1)
    union = as_union(u)
    for comp in union:
        check_oracle_budget(*_walk_cost(comp))
    return prod((narayana_oracle(comp) for comp in union), start=ONE)


# ---------------------------------------------------------------------------
# Reflection-Cayley-graph oracle for reflection length
# ---------------------------------------------------------------------------


def reflection_length_table(d: DynkinDiagram) -> dict[bytes, int]:
    """Map every group element (matrix bytes) to its reflection length.

    Breadth-first search over the Cayley graph generated by *all*
    reflections; intended as an independent check of the codimension
    formula on small groups.
    """
    cartan = cartan_matrix(d)
    refls = [
        _orbits.reflection_matrix_for_root(np.array(r, dtype=np.int64), cartan)
        for r in _orbits.positive_roots(cartan)
    ]
    n = d.rank
    start = np.eye(n, dtype=np.int64)
    lengths = {start.tobytes(): 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for mat in frontier:
            for refl in refls:
                img = refl @ mat
                key = img.tobytes()
                if key not in lengths:
                    lengths[key] = depth
                    nxt.append(img)
        frontier = nxt
    return lengths


def all_group_matrices(d: DynkinDiagram) -> list[np.ndarray]:
    """Every element of a small group, as simple-root-basis matrices."""
    mats = _orbits.simple_reflection_matrices(cartan_matrix(d))
    n = d.rank
    start = np.eye(n, dtype=np.int64)
    seen = {start.tobytes(): start}
    frontier = [start]
    while frontier:
        nxt = []
        for mat in frontier:
            for s in mats:
                img = s @ mat
                key = img.tobytes()
                if key not in seen:
                    seen[key] = img
                    nxt.append(img)
        frontier = nxt
    return list(seen.values())

