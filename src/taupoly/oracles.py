"""Brute-force oracles for the Weyl-group statistics.

Nothing here is called by the engine (``weyl``, ``formulas``); the tests
and the ``--oracle`` routes compare the engine with these:

* descent counts by enumerating permutations (type A) and even-signed
  permutations (type D), by the classical triangle recurrences, and by
  breadth-first traversal of the regular-weight orbit (every type);
* preprojective orbit totals by traversing a fundamental-weight orbit;
* Narayana polynomials by the closed binomial formula (type A) and by
  walking the absolute-order interval down from a Coxeter element,
  visiting only its Catalan(W) elements; the tests check the walk against
  whole-group enumeration with the codimension formula for reflection
  length, itself checked by breadth-first search over all reflections.

Each oracle first works out from the diagram how many elements it will
visit and raises ``RankTooLarge`` over ``errors.ORACLE_BUDGET``, as the
E8 orbit (696,729,600 elements) does.

The two enumerations visit every word and count its descents, in numpy
blocks rather than one tuple at a time: type A in the m(m-1) blocks of
``permutation_blocks`` (letters m-1 and m inserted at each pair of
positions into the (m-2)! shorter permutations), type D in the
2^(rank-1) blocks of ``even_signed_blocks`` (the rank! permutations
times one even sign vector).  The tuple functions
``descent_count_permutation`` and ``descent_count_signed`` are the
one-element definitions the tests compare the row-wise counts with.

One kernel, ``orbit_levels``, traverses the orbit of a dominant weight,
making each point once, from its canonical parent, in fundamental-weight
coordinates (int8) and with its height below the start.  From the
regular weight rho = (1, ..., 1) the points match the group elements;
from a fundamental weight w_l they match the rigid submodules of the
projective at l over the preprojective algebra, of dimension that height
(Geiss-Leclerc-Schroer).  Positive roots are made likewise, by height.

The walk goes level by level from c down to the identity.  The elements
covered by w are the t*w for the reflections t whose root lies in
Im(w - I) (Carter's lemma).  An element w of order m is semisimple, so
S = I + w + ... + w^(m-1) is m times the projection onto Fix(w) along
Im(w - I): a root lies in Im(w - I) exactly when S kills it, and
trace S = m * (rank - l(w)) checks the reflection length, both exactly.
"""

from __future__ import annotations

from math import comb, prod
from typing import Callable, Iterator

import numpy as np

from .dynkin import DynkinDiagram, as_union, delete_vertex
from .errors import ConsistencyError, check_oracle_budget
from .polynomials import ONE, Polynomial


def cartan_matrix(d: DynkinDiagram) -> np.ndarray:
    """Cartan matrix in the diagram's vertex order (symmetric, ADE)."""
    index = {v: i for i, v in enumerate(d.vertices)}
    C = 2 * np.eye(d.rank, dtype=np.int64)
    for a, b in d.edges:
        C[index[a], index[b]] = -1
        C[index[b], index[a]] = -1
    return C


def simple_reflection_matrices(cartan: np.ndarray) -> list[np.ndarray]:
    """Reflection matrices acting on simple-root coordinates (column vectors)."""
    n = cartan.shape[0]
    mats = []
    for i in range(n):
        m = np.eye(n, dtype=np.int64)
        m[i, :] -= cartan[i, :]
        mats.append(m)
    return mats


def reflection_matrix_for_root(root: np.ndarray, cartan: np.ndarray) -> np.ndarray:
    """Matrix of the reflection in the given root (simple-root coordinates)."""
    a = np.asarray(root, dtype=np.int64)
    n = cartan.shape[0]
    return np.eye(n, dtype=np.int64) - np.outer(a, cartan @ a)


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


def _as_int8(mats: np.ndarray) -> np.ndarray:
    if np.abs(mats).max(initial=0) > np.iinfo(np.int8).max:
        raise ConsistencyError("group element entry does not fit in int8")
    return mats.astype(np.int8)


def _fixed_space_sums(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = I + w + ... + w^(m-1) and the order m of each int64 matrix w
    in a batch of group elements.  S is m times the projection onto
    Fix(w) along Im(w - I); a power that leaves int8 raises
    ConsistencyError.

    >>> a2 = DynkinDiagram("A", 2)
    >>> sums, order = _fixed_space_sums(coxeter_element_matrix(a2)[None])
    >>> order.tolist(), bool(sums.any())
    ([3], False)
    >>> s1 = simple_reflection_matrices(cartan_matrix(a2))[0]
    >>> sums, order = _fixed_space_sums(s1[None])
    >>> order.tolist(), int(np.trace(sums[0]))
    ([2], 2)
    """
    eye = np.eye(w.shape[1], dtype=np.int64)
    sums = np.broadcast_to(eye, w.shape).copy()
    order = np.ones(len(w), dtype=np.int64)
    live, power = np.arange(len(w)), w
    while live.size:
        pending = ~(power == eye).all(axis=(1, 2))
        live, power = live[pending], power[pending]
        sums[live] += power
        order[live] += 1
        power = _as_int8(power @ w[live]).astype(np.int64)
    return sums, order


def interval_walk(
    cartan: np.ndarray,
    coxeter_matrix: np.ndarray,
    progress: Callable[[int], None] | None = None,
) -> list[int]:
    """Distribution of reflection length over the absolute-order interval [1, c].

    Walks down from ``{c}`` one reflection length at a time: the level
    below k is every s_alpha * w with w at level k and alpha a positive
    root in Im(w - I) (read off ``_fixed_space_sums``), deduplicated.
    Entry k of the result is the size of level k; ``progress`` gets the
    running element count after each level.  Raises ConsistencyError if a
    level's reflection lengths are not what the walk assumes or the last
    level is not the identity.
    """
    C = np.asarray(cartan, dtype=np.int64)
    n = C.shape[0]
    roots = np.array(positive_roots(C), dtype=np.int64)  # (N, n)
    covectors = roots @ C  # row j is (C alpha_j)^T; C is symmetric
    eye = np.eye(n, dtype=np.int64)
    level = _as_int8(np.asarray(coxeter_matrix)[None, :, :])
    hist = [0] * (n + 1)
    visited = 0
    for k in range(n, -1, -1):
        hist[k] = level.shape[0]
        visited += level.shape[0]
        if progress is not None:
            progress(visited)
        if k == 0:
            break
        w = level.astype(np.int64)
        sums, order = _fixed_space_sums(w)
        if (np.trace(sums, axis1=1, axis2=2) != order * (n - k)).any():
            raise ConsistencyError(f"an element at interval level {k} has another reflection length")
        b, j = np.nonzero(~(sums @ roots.T).any(axis=1))
        # s_alpha w = w - alpha ((C alpha)^T w)
        rows = np.einsum("mi,mij->mj", covectors[j], w[b])
        children = _as_int8(w[b] - roots[j][:, :, None] * rows[:, None, :])
        # each matrix as one n*n-byte key: a 1-D byte sort, far cheaper
        # than np.unique(axis=0) over n*n int8 fields
        keys = children.reshape(-1, n * n).view(np.dtype((np.void, n * n))).ravel()
        level = children[np.unique(keys, return_index=True)[1]]
    if hist[0] != 1 or not (level[0] == eye).all():
        raise ConsistencyError("the interval walk did not end at the identity")
    return hist


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


def _eulerian_sym(m: int) -> tuple[int, ...]:
    """Descent distribution over the symmetric group on m letters."""
    row = (1,)
    for size in range(2, m + 1):
        prev = (0, *row, 0)  # prev[k + 1] is the count with k descents
        row = tuple((k + 1) * prev[k + 1] + (size - k) * prev[k] for k in range(size))
    return row


def _eulerian_hyperoctahedral(m: int) -> tuple[int, ...]:
    """Descent distribution over all signed permutations of m letters."""
    row = (1,)
    for size in range(1, m + 1):
        prev = (0, *row, 0)  # prev[k + 1] is the count with k descents
        row = tuple(
            (2 * k + 1) * prev[k + 1] + (2 * (size - k) + 1) * prev[k] for k in range(size + 1)
        )
    return row


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
    """The descent oracle ``eulerian`` runs on ``d``, and the number of
    group elements it visits."""
    route = "weight orbit" if d.family == "E" else "descent enumeration"
    return f"{d} {route}", d.group_order()


def permutation_rows(k: int) -> np.ndarray:
    """All k! permutations of 1..k as the rows of a (k!, k) array, built
    by inserting each letter, smallest first, into every position of the
    permutations of the smaller ones.  The dtype is the narrowest signed
    type that holds -k..k.

    >>> permutation_rows(3).tolist()
    [[3, 2, 1], [3, 1, 2], [2, 3, 1], [1, 3, 2], [2, 1, 3], [1, 2, 3]]
    """
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(-k))
    for letter in range(1, k + 1):
        rows = np.concatenate([np.insert(rows, pos, letter, axis=1) for pos in range(letter)])
    return rows


def permutation_blocks(m: int) -> Iterator[np.ndarray]:
    """The m! permutations of 1..m (m >= 2) in m(m-1) blocks of (m-2)!
    rows: block (p, q) is every permutation of 1..m-2 with the letter m-1
    inserted at position p and then m at position q.  Two letters rather
    than one keep A8's blocks at 5,040 rows (45 KB)."""
    base = permutation_rows(m - 2).astype(np.min_scalar_type(-m))
    for p in range(m - 1):
        shorter = np.insert(base, p, m - 1, axis=1)
        for q in range(m):
            yield np.insert(shorter, q, m, axis=1)


def even_signed_blocks(rank: int) -> Iterator[np.ndarray]:
    """The even-signed permutations of 1..rank in 2^(rank-1) blocks of
    rank! rows: block s is every permutation times the s-th sign vector
    with an even number of minus signs."""
    base = permutation_rows(rank)
    bits = np.arange(rank)
    for mask in range(1 << rank):
        if mask.bit_count() % 2 == 0:
            yield base * (1 - 2 * ((mask >> bits) & 1)).astype(base.dtype)


def descent_counts(rows: np.ndarray) -> np.ndarray:
    """Row-wise ``descent_count_permutation``, in the narrowest unsigned
    type that holds the row length."""
    return (rows[:, :-1] > rows[:, 1:]).sum(axis=1, dtype=np.min_scalar_type(rows.shape[1]))


def signed_descent_counts(rows: np.ndarray) -> np.ndarray:
    """Row-wise ``descent_count_signed``; the sum w(1) + w(2) is taken in
    int64 so no width of ``rows`` can overflow it."""
    return descent_counts(rows) + (np.add(rows[:, 0], rows[:, 1], dtype=np.int64) < 0)


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
# Reflection length and the absolute-order interval
# ---------------------------------------------------------------------------


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, m):
            f = rows[r][col]
            if f:
                rows[r] = [a * pivot - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


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
    mats = simple_reflection_matrices(cartan_matrix(d))
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
    ``interval_walk``), each tested against every positive root; that
    product is checked against the oracle budget, which D10 and A11
    exceed.  ``progress``, if given, is called after each level with the
    number of elements visited so far.  The tests check the walk against
    the whole-group membership rule l(w) + l(w^{-1}c) = rank on small
    groups.
    """
    check_oracle_budget(*_walk_cost(d))
    cartan = cartan_matrix(d)
    cox = coxeter_element_matrix(d, coxeter_order)
    return Polynomial(interval_walk(cartan, cox, progress=progress))


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
    interval walks over its components, once every component is within
    the oracle budget.

    >>> from taupoly.dynkin import parse_union
    >>> str(narayana(parse_union("A3")))
    't^3 + 6t^2 + 6t + 1'
    """
    union = as_union(u)
    for comp in union:
        check_oracle_budget(*_walk_cost(comp))
    return prod((narayana_oracle(comp) for comp in union), start=ONE)


# ---------------------------------------------------------------------------
# Whole-group oracles for reflection length
# ---------------------------------------------------------------------------


def _cayley_bfs(rank: int, generators: list[np.ndarray]) -> dict[bytes, tuple[np.ndarray, int]]:
    """Every element of the group the generators make, keyed by its
    matrix bytes, with its distance from the identity in their Cayley
    graph."""
    start = np.eye(rank, dtype=np.int64)
    seen = {start.tobytes(): (start, 0)}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for mat in frontier:
            for gen in generators:
                img = gen @ mat
                key = img.tobytes()
                if key not in seen:
                    seen[key] = (img, depth)
                    nxt.append(img)
        frontier = nxt
    return seen


def reflection_length_table(d: DynkinDiagram) -> dict[bytes, int]:
    """Map every group element (matrix bytes) to its reflection length.

    Breadth-first search over the Cayley graph generated by *all*
    reflections; intended as an independent check of the codimension
    formula on small groups.
    """
    cartan = cartan_matrix(d)
    refls = [reflection_matrix_for_root(r, cartan) for r in positive_roots(cartan)]
    return {key: depth for key, (_, depth) in _cayley_bfs(d.rank, refls).items()}


def all_group_matrices(d: DynkinDiagram) -> list[np.ndarray]:
    """Every element of a small group, as simple-root-basis matrices."""
    mats = simple_reflection_matrices(cartan_matrix(d))
    return [mat for mat, _ in _cayley_bfs(d.rank, mats).values()]
