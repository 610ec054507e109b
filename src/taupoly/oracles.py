"""Brute-force oracles for the Weyl-group statistics.

Nothing here is called by the engine (``weyl``, ``formulas``); the tests
and the ``--oracle`` routes compare the engine with these:

* descent counts by enumerating permutations (type A) and even-signed
  permutations (type D), and by breadth-first traversal of the
  regular-weight orbit (every type);
* preprojective orbit totals by traversing a fundamental-weight orbit;
* Narayana polynomials by the closed binomial formula (type A) and by
  counting the antichains of the root poset by size: Nar(W, k) is the
  number of k-antichains (Athanasiadis, Trans. AMS 357, 2005; Armstrong,
  Mem. AMS 202, 2009, ch. 5).

Each oracle first works out from the diagram how many elements it will
visit and raises ``UsageError`` over ``errors.ORACLE_BUDGET``, as the
E8 orbit (696,729,600 elements) does.

The two enumerations visit every word and count its descents, in numpy
blocks rather than one tuple at a time: type A in the m(m-1) blocks of
``permutation_blocks`` (letters m-1 and m inserted at each pair of
positions into the (m-2)! shorter permutations), type D in the
2^(rank-1) blocks of ``even_signed_blocks`` (the rank! permutations
times one even sign vector).  A block is letter-major, as the orbit
levels below are: an int8 (letters, words) array with one word per
column, so a descent count compares consecutive letter rows.  The
tests hold these counts to the one-word definitions and the descent
polynomials to the classical triangle recurrences.

One kernel, ``orbit_levels``, traverses the orbit of a dominant weight,
making each point once, from its canonical parent, in fundamental-weight
coordinates (int8) and with its height below the start.  From the
regular weight rho = (1, ..., 1) the points match the group elements;
from a fundamental weight w_l they match the rigid submodules of the
projective at l over the preprojective algebra, of dimension that height
(Geiss-Leclerc-Schroer).  Positive roots are made likewise, by height.

One census, ``_clique_census``, counts the cliques of a graph level by
level in numpy: a clique is its last vertex and the bitmask of the
vertices adjacent to all of it, and its children are the set bits of
that mask past its last vertex, unpacked from a chunk of masks at once.
The antichains of the root poset are the cliques of its incomparability
graph; ``hereditary`` counts the faces of the tau-rigid complex, the
cliques of its compatibility graph, with the same census.
"""

from __future__ import annotations

from math import comb, prod
from typing import Callable, Iterator

import numpy as np

from .dynkin import DynkinDiagram, as_union, delete_vertex
from .errors import ORACLE_BUDGET, ConsistencyError, check_oracle_budget
from .polynomials import ONE, Polynomial


def cartan_matrix(d: DynkinDiagram) -> np.ndarray:
    """Cartan matrix in the diagram's vertex order (symmetric, ADE)."""
    index = {v: i for i, v in enumerate(d.vertices)}
    C = 2 * np.eye(d.rank, dtype=np.int64)
    for a, b in d.edges:
        C[index[a], index[b]] = -1
        C[index[b], index[a]] = -1
    return C


def positive_roots(cartan: np.ndarray) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, sorted, built up by
    height: gamma = beta + alpha_i is a root exactly when <beta, alpha_i> =
    -1, and is kept only from its canonical parent, where i is the first j
    with <gamma, alpha_j> = 1 (every non-simple positive root has one)."""
    C = np.asarray(cartan, dtype=np.int64)
    n = C.shape[0]
    level = np.eye(n, dtype=np.int64)  # the roots of one height, as rows
    levels = [level]
    while len(level):
        pairing = level @ C  # entry (r, j) is <beta_r, alpha_j>; C is symmetric
        children = []
        for i in range(n):
            up = pairing[:, i] == -1
            gamma = level[up]
            gamma[:, i] += 1
            first = np.argmax(pairing[up] + C[i] == 1, axis=1)
            children.append(gamma[first == i])
        level = np.concatenate(children)
        levels.append(level)
    return sorted(map(tuple, np.concatenate(levels).tolist()))


def orbit_levels(cartan: np.ndarray, start) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The orbit of the dominant weight ``start`` by length, as (n, points)
    int8 columns of fundamental-weight coordinates and the int64 heights
    ht(start - mu): level k holds the w(start) whose shortest w has l(w) = k.

    s_i lengthens w, and adds mu_i to the height, exactly when mu_i > 0 for
    mu = w(start), and the first negative coordinate j of any point but the
    start names its one parent s_j(mu); so a child s_i(mu) is kept only
    with no negative coordinate before i, and each point is made once.

    >>> [level.shape[1] for level, _ in orbit_levels(cartan_matrix(DynkinDiagram("A", 2)), (1, 1))]
    [1, 2, 2, 1]
    """
    # mu_i = <start, beta> for a root beta: from rho its height, at most
    # h - 1 <= 29, and from w_ell its alpha_ell coefficient, at most 6.  So
    # every value below, mu_i * C[i, j] and mu_j - mu_i * C[i, j] included,
    # is at most 58 in absolute value and int8 holds it
    C = np.asarray(cartan, dtype=np.int8)
    n = C.shape[0]
    level = np.array(start, dtype=np.int8).reshape(n, 1)
    heights = np.zeros(1, dtype=np.int64)
    while level.shape[1]:
        yield level, heights
        children, lowered = [], []
        for i in range(n):
            up = level[i] > 0
            mu = level[:, up]
            child = mu - mu[i] * C[i][:, None]
            canonical = ~(child[:i] < 0).any(axis=0)
            children.append(child[:, canonical])
            lowered.append((heights[up] + mu[i])[canonical])
        level = np.concatenate(children, axis=1)
        heights = np.concatenate(lowered)


def descent_distribution(cartan: np.ndarray, progress: Callable[[int], None] | None = None) -> list[int]:
    """Histogram of the number of negative coordinates over the rho-orbit.

    A coordinate of w(rho) is negative exactly when the corresponding
    simple reflection shortens w on the left, so this is the descent-count
    distribution over the whole group.
    """
    n = np.asarray(cartan).shape[0]
    hist = np.zeros(n + 1, dtype=np.int64)
    total = 0
    for level, _ in orbit_levels(cartan, (1,) * n):
        hist += np.bincount((level < 0).sum(axis=0), minlength=n + 1)
        total += level.shape[1]
        if progress is not None:
            progress(total)
    return hist.tolist()


def weight_orbit_total(d: DynkinDiagram, ell: int) -> tuple[int, int]:
    """The sum of the heights over the orbit of w_ell, which is the
    preprojective orbit total, and the point count |W| / |W(d minus ell)|:
    checked against the budget before any work, and any other count made
    raises ConsistencyError.

    >>> weight_orbit_total(DynkinDiagram("E", 6), 1)
    (216, 27)
    """
    size = d.group_order() // prod(comp.group_order() for comp in delete_vertex(d, ell))
    check_oracle_budget(f"{d} weight orbit at vertex {ell}", size)
    total = count = 0
    for level, heights in orbit_levels(cartan_matrix(d), [int(v == ell) for v in d.vertices]):
        total += int(heights.sum())
        count += level.shape[1]
    if count != size:
        raise ConsistencyError(f"{d} weight orbit at vertex {ell}: {count:,} points, not {size:,}")
    return total, count


# ---------------------------------------------------------------------------
# Descent statistics
# ---------------------------------------------------------------------------


def _descent_oracle_cost(d: DynkinDiagram) -> tuple[str, int]:
    """The descent oracle ``eulerian`` runs on ``d``, and the number of
    group elements it visits."""
    route = "weight orbit" if d.family == "E" else "descent enumeration"
    return f"{d} {route}", d.group_order()


def permutation_columns(k: int) -> np.ndarray:
    """All k! permutations of 1..k as the columns of an int8 (k, k!)
    array, built by inserting each letter, smallest first, into every
    position of the permutations of the smaller ones.

    >>> permutation_columns(3).T.tolist()
    [[3, 2, 1], [3, 1, 2], [2, 3, 1], [1, 3, 2], [2, 1, 3], [1, 2, 3]]
    """
    # the budget admits k! words only for k far below int8's 127
    words = np.zeros((0, 1), dtype=np.int8)
    for letter in range(1, k + 1):
        inserted = [np.insert(words, pos, letter, axis=0) for pos in range(letter)]
        words = np.concatenate(inserted, axis=1)
    return words


def permutation_blocks(m: int) -> Iterator[np.ndarray]:
    """The m! permutations of 1..m (m >= 2) in m(m-1) blocks of (m-2)!
    columns: block (p, q) is every permutation of 1..m-2 with the letter
    m-1 inserted at position p and then m at position q.  Two letters
    rather than one keep A8's blocks at 5,040 words (45 KB)."""
    base = permutation_columns(m - 2)
    for p in range(m - 1):
        shorter = np.insert(base, p, m - 1, axis=0)
        for q in range(m):
            yield np.insert(shorter, q, m, axis=0)


def even_signed_blocks(rank: int) -> Iterator[np.ndarray]:
    """The even-signed permutations of 1..rank in 2^(rank-1) blocks of
    rank! columns: block s is every permutation times the s-th sign
    vector with an even number of minus signs."""
    base = permutation_columns(rank)
    bits = np.arange(rank)
    for mask in range(1 << rank):
        if mask.bit_count() % 2 == 0:
            yield base * (1 - 2 * ((mask >> bits) & 1)).astype(np.int8)[:, None]


def descent_counts(words: np.ndarray) -> np.ndarray:
    """The descents of each column w, the positions i with w(i) > w(i+1):
    each letter row is compared with the next, and the comparisons are
    summed down the columns into uint8."""
    return (words[:-1] > words[1:]).sum(axis=0, dtype=np.uint8)


def signed_descent_counts(words: np.ndarray) -> np.ndarray:
    """The type D descents of each column w: ``descent_counts`` plus one
    when w(1) + w(2) < 0, tested as w(1) < -w(2) so int8 cannot overflow."""
    return descent_counts(words) + (words[0] < -words[1])


def _descent_histogram(blocks: Iterator[np.ndarray], counts, rank: int) -> Polynomial:
    hist = np.zeros(rank + 1, dtype=np.int64)
    for block in blocks:
        hist += np.bincount(counts(block), minlength=rank + 1)
    return Polynomial(hist.tolist())


def eulerian_a_by_enumeration(rank: int) -> Polynomial:
    """Oracle: descent counts over all permutations of rank+1 letters,
    counted one ``permutation_blocks`` block at a time.

    >>> eulerian_a_by_enumeration(3).coeffs
    (1, 11, 11, 1)
    """
    if rank <= 0:
        return ONE
    check_oracle_budget(*_descent_oracle_cost(DynkinDiagram("A", rank)))
    return _descent_histogram(permutation_blocks(rank + 1), descent_counts, rank)


def eulerian_d_by_enumeration(rank: int) -> Polynomial:
    """Oracle: descent counts over signed permutations with even sign
    count, counted one ``even_signed_blocks`` block at a time.

    >>> eulerian_d_by_enumeration(4).coeffs
    (1, 44, 102, 44, 1)
    """
    check_oracle_budget(*_descent_oracle_cost(DynkinDiagram("D", rank)))
    return _descent_histogram(even_signed_blocks(rank), signed_descent_counts, rank)


def eulerian_by_orbit(d: DynkinDiagram) -> Polynomial:
    """Descent distribution via traversal of the regular-weight orbit.

    Works for every family; it is the only route for type E.  The orbit
    has one point per group element, so E8 (696,729,600) is over the
    oracle budget; a traversal that visits any other number of points
    raises ConsistencyError.
    """
    check_oracle_budget(f"{d} weight orbit", d.group_order())
    hist = descent_distribution(cartan_matrix(d))
    # no visited set guards the traversal, so its point count does
    if sum(hist) != d.group_order():
        raise ConsistencyError(f"{d} weight orbit: {sum(hist):,} points, not {d.group_order():,}")
    return Polynomial(hist)


def eulerian(u) -> Polynomial:
    """Descent-count polynomial of a diagram or union, multiplied out from
    brute-force counts over its components: enumeration for types A and
    D, the weight orbit for type E.  Every component is checked against
    the oracle budget before any is counted.

    >>> from taupoly.dynkin import parse_union
    >>> str(eulerian(parse_union("A1xA2")))
    't^3 + 5t^2 + 5t + 1'
    """
    union = as_union(u)
    for comp in union:
        check_oracle_budget(*_descent_oracle_cost(comp))
    route = {
        "A": lambda comp: eulerian_a_by_enumeration(comp.rank),
        "D": lambda comp: eulerian_d_by_enumeration(comp.rank),
        "E": eulerian_by_orbit,
    }
    return prod((route[comp.family](comp) for comp in union), start=ONE)


# ---------------------------------------------------------------------------
# Cliques: the faces of a flag complex and the antichains of the root poset
# ---------------------------------------------------------------------------

# mask bits the census scans at once, 64 per mask word of each row: bounds
# its temporaries, the unpacked bools and the indices of the set ones
_CENSUS_BITS = 1 << 18


def _clique_census(compatible: np.ndarray, dims, max_size: int, max_cliques: int = ORACLE_BUDGET):
    """Count the cliques of a graph by size, with dimension-weighted
    totals and the number of maximal cliques of each size.  Raises
    ConsistencyError if any clique exceeds max_size, or as soon as a level
    takes the count past max_cliques (the empty clique and the vertices
    included), so a graph far denser than expected stops early.

    The census runs level by level.  A clique of size k is a row: its
    last (largest) vertex, the mask of the vertices adjacent to all of it
    (bit j % 64 of uint64 word j // 64 for vertex j) and its dimension
    total.  Its children are the set bits of its mask that lie past its
    last vertex, read off the mask ANDed with that vertex's later
    neighbours, unpacked to one bool per bit; it is maximal when the mask
    is empty.  Faces of size max_size are not expanded: one with a
    nonempty mask extends to a larger clique, so it raises.  Each level
    is scanned in chunks of at most ``_CENSUS_BITS`` mask bits (one row
    if a row holds more).  Each row carries its dimension total in int64,
    and each level is summed in int64, far below 2**63 for both callers:
    a face of a tau-rigid complex (rank at most 8) totals at most
    8 * 29 = 232 and a level holds at most 163,856 faces (E8), so a level
    sums to under 2**26; an antichain of roots has zero dimensions.

    >>> _clique_census(~np.eye(3, dtype=bool), [1, 2, 3], 3)
    ([1, 3, 3, 1], [0, 6, 12, 6], [0, 0, 0, 1])
    """
    n = len(compatible)
    dims = np.asarray(dims, dtype=np.int64)
    words = max(1, -(-n // 64))

    def packed(matrix):
        rows = np.zeros((n, 8 * words), dtype=np.uint8)
        rows[:, : -(-n // 8)] = np.packbits(matrix, axis=1, bitorder="little")
        return rows.view("<u8")

    bits, later = packed(compatible), packed(np.triu(compatible, 1))
    rows_per_chunk = max(1, _CENSUS_BITS // (64 * words))

    counts = [0] * (max_size + 1)
    dim_sums = [0] * (max_size + 1)
    maximal = [0] * (max_size + 1)
    counts[0], maximal[0] = 1, int(n == 0)
    last, mask, dim_total, size = np.arange(n), bits, dims, 1
    made = 1 + n
    while len(last):
        if size > max_size:  # only when max_size is 0; larger ones stop at their top level
            raise ConsistencyError("clique larger than the ambient rank")
        counts[size] = len(last)
        dim_sums[size] = int(dim_total.sum())
        maximal[size] = int(np.count_nonzero(~mask.any(axis=1)))
        if size == max_size:
            if maximal[size] < len(last):
                raise ConsistencyError("clique larger than the ambient rank")
            break
        chunks = []
        for lo in range(0, len(last), rows_per_chunk):
            ahead = mask[lo : lo + rows_per_chunk] & later[last[lo : lo + rows_per_chunk]]
            set_bits = np.unpackbits(ahead.view(np.uint8), bitorder="little").view(bool)
            parent, child = np.divmod(np.flatnonzero(set_bits), 64 * words)
            parent += lo
            made += len(child)
            if made > max_cliques:
                raise ConsistencyError(f"more than {max_cliques:,} cliques")
            chunks.append((child, mask[parent] & bits[child], dim_total[parent] + dims[child]))
        del last, mask, dim_total  # free this level before its children are joined
        last, mask, dim_total = (np.concatenate(level) for level in zip(*chunks))
        size += 1
    return counts, dim_sums, maximal


def _census_cost(d: DynkinDiagram) -> tuple[str, int]:
    return f"{d} root-poset antichain census", d.catalan_count()


def root_order(roots: np.ndarray) -> np.ndarray:
    """The root poset on the rows of ``roots``: entry (i, j) is True when
    beta_i <= beta_j, that is, beta_j - beta_i has no negative coefficient.

    >>> root_order(np.array([[1, 0], [0, 1], [1, 1]])).astype(int).tolist()
    [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    """
    return (roots[:, None] <= roots[None]).all(axis=2)


def narayana_oracle(d: DynkinDiagram) -> Polynomial:
    """Antichains of the root poset by size: coefficient k is Nar(W, k),
    the number of k-antichains (Athanasiadis), counted as the k-cliques of
    the poset's incomparability graph.  The census holds Catalan(W)
    antichains in all, which is checked against the oracle budget first
    (A15 and D14 exceed it); an antichain of more than rank roots, or
    more than Catalan(W) antichains, raises ConsistencyError.

    >>> narayana_oracle(DynkinDiagram("D", 4)).coeffs
    (1, 12, 24, 12, 1)
    """
    check_oracle_budget(*_census_cost(d))
    roots = np.array(positive_roots(cartan_matrix(d)), dtype=np.int64)
    le = root_order(roots)
    counts, _, _ = _clique_census(~(le | le.T), [0] * len(roots), d.rank, d.catalan_count())
    return Polynomial(counts)


def narayana_a(rank: int) -> Polynomial:
    """Closed form for the type A Narayana polynomial.

    Coefficient j is binom(rank+1, j) * binom(rank+1, j+1) / (rank+1).
    """
    if rank <= 0:
        return ONE
    m = rank + 1
    return Polynomial([comb(m, j) * comb(m, j + 1) // m for j in range(rank + 1)])


def narayana(u) -> Polynomial:
    """Narayana polynomial of a diagram or union, multiplied out from the
    antichain censuses of its components, once every component is within
    the oracle budget.

    >>> from taupoly.dynkin import parse_union
    >>> str(narayana(parse_union("A3")))
    't^3 + 6t^2 + 6t + 1'
    """
    union = as_union(u)
    for comp in union:
        check_oracle_budget(*_census_cost(comp))
    return prod((narayana_oracle(comp) for comp in union), start=ONE)

