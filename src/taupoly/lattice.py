"""Lattice-path and sign-sequence models for submodule dimension totals.

Three combinatorial models, each an exhaustive enumeration oracle for the
per-vertex totals that ``formulas.orbit_dim_total`` computes from weight
heights:

* rectangle paths with the area-below statistic (type A vertices);
* corner paths in a staircase region (type D, the two fork vertices);
* strictly decreasing signed sequences with a position-weight statistic
  (type D, the tail vertices).

The area conventions are anchored to concrete worked instances: in the
rectangle model the all-North-then-East path fills the whole rectangle
and the all-East-then-North path has area 0; in the corner model the
all-East path has area 0 and the all-North path fills the staircase.
Each enumeration also reports its path count so callers can check the
counting identities alongside the weighted sums; that count, known in
closed form, is checked against the oracle budget before enumerating.

The sign-sequence model runs in numpy blocks of a few thousand rows
(``sign_sequence_blocks``): every sequence is still built, sorted and
weighted, but per block rather than per tuple.  The tuple functions
``sign_sequences`` and ``sequence_weight`` are the one-element
definitions the tests compare the blocks with.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .errors import MalformedPath, NotAVertex, UsageError, check_oracle_budget

East = 0
North = 1

# rows per sign-sequence block; within the oracle budget n - ell <= 23,
# so no array of a block passes 400 KB
_BLOCK_ROWS = 2048


class OracleSum(NamedTuple):
    total: int
    count: int


def rect_paths(s: int, t: int) -> Iterator[tuple[int, ...]]:
    """All monotone paths from (0,0) to (s,t), as step tuples."""
    for east_positions in itertools.combinations(range(s + t), s):
        path = [North] * (s + t)
        for pos in east_positions:
            path[pos] = East
        yield tuple(path)


def area_rect(path: tuple[int, ...], s: int, t: int) -> int:
    """Unit squares of [0,s] x [0,t] lying below the path.

    Each East step at height y covers y squares of its column.
    """
    if len(path) != s + t or sum(1 for p in path if p == East) != s:
        raise MalformedPath(f"path is not a ({s},{t}) rectangle path")
    height = 0
    area = 0
    for step in path:
        if step == North:
            height += 1
        else:
            area += height
    return area


def dim_orbit_ppa_A_oracle(n: int, ell: int) -> OracleSum:
    """Enumerate the rectangle paths and sum their areas.

    The count equals binom(n+1, ell).
    """
    if not 1 <= ell <= n:
        raise NotAVertex(f"vertex {ell} not in A{n}")
    check_oracle_budget(f"A{n} rectangle model at vertex {ell}", comb(n + 1, ell))
    s, t = ell, n - ell + 1
    total = 0
    count = 0
    for path in rect_paths(s, t):
        total += area_rect(path, s, t)
        count += 1
    return OracleSum(total, count)


def corner_paths(length: int) -> Iterator[tuple[int, ...]]:
    """All 2**length step sequences of the given length."""
    return itertools.product((East, North), repeat=length)


def area_corner(path: tuple[int, ...], n: int) -> int:
    """Squares of the staircase {x,y >= 0, x+y <= n} below or right of the path.

    Row j (counted from the bottom) contributes one square for each
    column position from the path's x-coordinate at height j+1 out to the
    staircase boundary.  Rows the path never climbs to contribute none.
    """
    if len(path) != n - 1:
        raise MalformedPath(f"corner path must have length {n - 1}")
    area = 0
    x = 0
    j = 0
    for step in path:
        if step == East:
            x += 1
        else:
            area += (n - 1) - j - x
            j += 1
    return area


def dim_orbit_ppa_D_oracle_pm1(n: int) -> OracleSum:
    """Enumerate corner paths; the total must equal n(n-1)2^(n-3)."""
    if n < 2:
        raise UsageError("corner model needs n >= 2")
    check_oracle_budget(f"D{n} corner model", 2 ** (n - 1))
    total = 0
    count = 0
    for path in corner_paths(n - 1):
        total += area_corner(path, n)
        count += 1
    return OracleSum(total, count)


def sign_sequences(n: int, ell: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing sequences of n-ell values with distinct
    absolute values drawn from {1..n}, each with either sign.

    There are 2^(n-ell) binom(n, ell) of them.
    """
    k = n - ell
    for absvals in itertools.combinations(range(1, n + 1), k):
        for signs in itertools.product((1, -1), repeat=k):
            yield tuple(sorted((a * s for a, s in zip(absvals, signs)), reverse=True))


def sequence_weight(u: tuple[int, ...], n: int) -> int:
    """The statistic sum_i (i + u_i*) with u* = u if u < 0 else u - 2.

    Positions run from n - len(u) + 1 up to n, pairing the largest entry
    with the smallest position.
    """
    ell = n - len(u)
    total = 0
    for offset, value in enumerate(u):
        i = ell + 1 + offset
        total += i + (value if value < 0 else value - 2)
    return total


def sign_sequence_blocks(n: int, ell: int) -> Iterator[np.ndarray]:
    """The members of ``sign_sequences(n, ell)``, each once, as the rows
    of arrays of at most ``_BLOCK_ROWS`` rows, every row sorted in
    descending order.

    Each block pairs a run of sign vectors with a run of absolute-value
    combinations; the combinations are streamed once per run of sign
    vectors, so memory depends on the block size and not on n.  The
    dtype is int32 (the fastest to sort), or wider if n needs it.

    >>> next(sign_sequence_blocks(3, 1))[:4].tolist()
    [[2, 1], [2, -1], [1, -2], [-1, -2]]
    """
    k = n - ell
    dtype = np.promote_types(np.int32, np.min_scalar_type(-n))
    signs_per_block = min(1 << k, _BLOCK_ROWS)
    combos_per_block = _BLOCK_ROWS // signs_per_block
    bits = np.arange(k)
    for start in range(0, 1 << k, signs_per_block):
        masks = np.arange(start, min(start + signs_per_block, 1 << k))
        signs = (1 - 2 * ((masks[:, None] >> bits) & 1)).astype(dtype)
        combos = itertools.combinations(range(1, n + 1), k)
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(combos, combos_per_block))
            absvals = np.fromiter(chunk, dtype=dtype).reshape(-1, k)
            if not len(absvals):
                break
            rows = (absvals[:, None, :] * signs[None, :, :]).reshape(-1, k)
            yield np.sort(rows, axis=1)[:, ::-1]


def sequence_weights(rows: np.ndarray, n: int) -> np.ndarray:
    """Row-wise ``sequence_weight``, in int64: the positions
    n - k + 1..n plus the entries, less 2 for each positive entry."""
    k = rows.shape[1]
    positions = np.arange(n - k + 1, n + 1, dtype=np.int64)
    return (positions + rows).sum(axis=1) - 2 * (rows > 0).sum(axis=1)


def dim_orbit_ppa_D_oracle_mid(n: int, ell: int) -> OracleSum:
    """Enumerate the sign sequences and sum their weights, one
    ``sign_sequence_blocks`` block at a time.

    >>> dim_orbit_ppa_D_oracle_mid(4, 2)
    OracleSum(total=120, count=24)
    """
    if not 2 <= ell <= n - 1:
        raise NotAVertex(f"tail vertex {ell} not in 2..{n - 1}")
    check_oracle_budget(f"D{n} sign-sequence model at vertex {ell}", 2 ** (n - ell) * comb(n, ell))
    total = 0
    count = 0
    for rows in sign_sequence_blocks(n, ell):
        total += int(sequence_weights(rows, n).sum())
        count += len(rows)
    return OracleSum(total, count)
