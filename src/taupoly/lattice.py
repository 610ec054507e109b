"""Lattice-path and sign-sequence models for submodule dimension totals.

Three combinatorial models, each an exhaustive enumeration oracle for the
preprojective per-vertex totals that ``formulas.orbit_dim_total``
computes from weight heights; ``orbit_total`` picks the model from the
vertex:

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

All three models run in numpy blocks of at most ``_BLOCK_WIDTH`` paths
or sequences (``rect_path_blocks``, ``corner_path_blocks``,
``sign_sequence_blocks``): every path or sequence is still built exactly
once, but per block rather than per tuple, and each block is reduced
straight to its total (``block_area_rect``, ``block_area_corner``,
``block_sequence_weight``).  A path or a sequence is a column of its
block, one step or entry per row, so the short entry axis is the outer
one.
The tests compare every block with the one-path definition of its
statistic.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .dynkin import DynkinDiagram
from .errors import UsageError, check_oracle_budget

# paths or sequences per block of every model; within the oracle budget a
# corner path or a sign sequence has at most 23 entries, and a rectangle
# block is cut to at most _BLOCK_WIDTH * 24 entries, so no array of a block
# passes 400 KB
_BLOCK_WIDTH = 2048


def _sum_blocks(
    blocks: Iterable[np.ndarray], block_total: Callable[[np.ndarray], int]
) -> tuple[int, int]:
    """The exact total over a stream of blocks, and the count of their
    members, the columns."""
    total = 0
    count = 0
    for block in blocks:
        total += block_total(block)
        count += block.shape[1]
    return total, count


def rect_path_blocks(s: int, t: int) -> Iterator[np.ndarray]:
    """The monotone paths from (0,0) to (s,t) for s >= 1, each once, as int64
    columns of East-step positions (entry j is the index of the j-th East
    step), in arrays of at most ``_BLOCK_WIDTH`` columns; long columns cut
    a block to ``_BLOCK_WIDTH * 24`` entries, or to a single column.

    >>> next(rect_path_blocks(2, 2)).T.tolist()
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    """
    paths_per_block = max(1, min(_BLOCK_WIDTH, _BLOCK_WIDTH * 24 // s))
    combos = itertools.combinations(range(s + t), s)
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(combos, paths_per_block))
        positions = np.fromiter(chunk, dtype=np.int64).reshape(-1, s)
        if not len(positions):
            return
        yield positions.T


def block_area_rect(positions: np.ndarray) -> int:
    """The total area of a block of ``rect_path_blocks``, a path's area
    being the unit squares of [0,s] x [0,t] below it: the j-th East step
    (from 0) lies above p_j - j North steps, and covers that many."""
    s, count = positions.shape
    return int(positions.sum()) - count * comb(s, 2)


def corner_path_blocks(length: int) -> Iterator[np.ndarray]:
    """The 2**length sequences of East (0) and North (1) steps, each once,
    as int64 columns in arrays of at most ``_BLOCK_WIDTH`` columns: step i
    of the m-th path is bit i of m.

    >>> next(corner_path_blocks(2)).T.tolist()
    [[0, 0], [1, 0], [0, 1], [1, 1]]
    """
    bits = np.arange(length)[:, None]
    for start in range(0, 1 << length, _BLOCK_WIDTH):
        masks = np.arange(start, min(start + _BLOCK_WIDTH, 1 << length))
        yield (masks >> bits) & 1


def block_area_corner(steps: np.ndarray, n: int) -> int:
    """The total area of a block of ``corner_path_blocks``, a path's area
    being the squares of the staircase {x, y >= 0, x + y <= n} below or
    right of it: a North step at index i, after j North and x East steps,
    adds (n - 1) - j - x = (n - 1) - i."""
    return int((np.arange(n - 1, 0, -1) @ steps).sum())


def sign_sequence_blocks(n: int, ell: int) -> Iterator[np.ndarray]:
    """The 2^(n-ell) binom(n, ell) strictly decreasing sequences of n - ell
    values with distinct absolute values from {1..n}, each with either
    sign, each once and each up to the order of its entries, as the
    columns of (n - ell, at most ``_BLOCK_WIDTH``) arrays, one entry per
    row: ``block_sequence_weight`` reads no entry order.

    Each block pairs a run of sign vectors with a run of absolute-value
    combinations; the combinations are streamed once per run of sign
    vectors, so memory depends on the block size and not on n.  The
    dtype is int32, or wider if n needs it.

    >>> next(sign_sequence_blocks(3, 1))[:, :4].T.tolist()
    [[1, 2], [-1, 2], [1, -2], [-1, -2]]
    """
    k = n - ell
    dtype = np.promote_types(np.int32, np.min_scalar_type(-n))
    signs_per_block = min(1 << k, _BLOCK_WIDTH)
    combos_per_block = _BLOCK_WIDTH // signs_per_block
    bits = np.arange(k)[:, None]
    for start in range(0, 1 << k, signs_per_block):
        masks = np.arange(start, min(start + signs_per_block, 1 << k))
        signs = (1 - 2 * ((masks >> bits) & 1)).astype(dtype)
        combos = itertools.combinations(range(1, n + 1), k)
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(combos, combos_per_block))
            absvals = np.fromiter(chunk, dtype=dtype).reshape(-1, k)
            if not len(absvals):
                break
            yield (absvals.T[:, :, None] * signs[:, None, :]).reshape(k, -1)


def block_sequence_weight(columns: np.ndarray, n: int) -> int:
    """The total weight of a block of ``sign_sequence_blocks``, a
    sequence u's weight being sum_i (i + u_i*) with u* = u if u < 0 else
    u - 2, over the positions i = n - k + 1..n: each column adds those
    positions and its entries, less 2 for each positive entry."""
    k, count = columns.shape
    positions = k * (2 * n - k + 1) // 2
    return count * positions + int(columns.sum()) - 2 * int(np.count_nonzero(columns > 0))


def orbit_total(d: DynkinDiagram, ell: int) -> tuple[int, int]:
    """The preprojective orbit total at vertex ell of a type A or D
    diagram, and the orbit's size, from the model where ell sits: the
    ell x (n-ell+1) rectangle paths in A_n, the corner paths at a fork
    vertex of D_n and the sign sequences at a tail vertex.

    Reversing a path and swapping East and North maps the s x t paths
    one-to-one onto the t x s paths, area for area, so the rectangle paths
    are listed by their steps along the shorter side.

    >>> orbit_total(DynkinDiagram("D", 4), 2)
    (120, 24)
    """
    d.check_vertex(ell)
    n = d.rank
    if d.family == "A":
        check_oracle_budget(f"{d} rectangle model at vertex {ell}", comb(n + 1, ell))
        return _sum_blocks(rect_path_blocks(*sorted((ell, n - ell + 1))), block_area_rect)
    if d.family != "D":
        raise UsageError(f"{d} has no lattice model")
    if abs(ell) == 1:
        check_oracle_budget(f"{d} corner model", 2 ** (n - 1))
        return _sum_blocks(corner_path_blocks(n - 1), lambda steps: block_area_corner(steps, n))
    check_oracle_budget(f"{d} sign-sequence model at vertex {ell}", 2 ** (n - ell) * comb(n, ell))
    blocks = sign_sequence_blocks(n, ell)
    return _sum_blocks(blocks, lambda columns: block_sequence_weight(columns, n))
