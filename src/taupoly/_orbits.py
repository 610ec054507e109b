"""Vectorized reflection-group enumeration.

Whole-group statistics visit each element once by breadth-first search
over the orbit of the regular weight rho = (1, ..., 1): the stabilizer of
rho is trivial, so orbit points and group elements are in bijection.
Points are stored in fundamental-weight coordinates (bounded by the
Coxeter number, so int8 is safe) and deduplicated through a packed int64
key.

The absolute-order interval [1, c] below a Coxeter element is walked
level by level from c down to the identity, visiting only its Catalan(W)
elements.  The elements covered by w are the t*w for the reflections t
whose root lies in Im(w - I) (Carter's lemma).  Membership of every
positive root is read off one row reduction of the augmented matrix
[w - I | roots], done in vectorized int64 arithmetic modulo two primes
just under 2**31.  A root outside Im(w - I) has a nonzero integer minor
which Hadamard's inequality bounds below the product of the primes, so it
cannot vanish modulo both and the two-prime test is exact.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .errors import ConsistencyError

_P1 = 2147483647  # 2**31 - 1, prime
_P2 = 2147483629  # prime

_KEY_OFFSET = 32  # weight coordinates lie in [-(h-1), h-1], h <= 30


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
    """All positive roots in simple-root coordinates, by reflection closure."""
    C = np.asarray(cartan, dtype=np.int64)
    n = C.shape[0]
    simples = [tuple(int(v) for v in row) for row in np.eye(n, dtype=np.int64)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            vec = np.array(r, dtype=np.int64)
            for i in range(n):
                img = vec.copy()
                img[i] -= int(C[i] @ vec)
                t = tuple(int(x) for x in img)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(r for r in seen if min(r) >= 0 and max(r) > 0)


def _keys_of(points: np.ndarray) -> np.ndarray:
    n = points.shape[1]
    powers = (64 ** np.arange(n, dtype=np.int64))
    return ((points.astype(np.int64) + _KEY_OFFSET) * powers).sum(axis=1)


def orbit_levels(cartan: np.ndarray) -> Iterator[np.ndarray]:
    """Yield BFS levels of the rho-orbit as (k, n) int8 points in
    fundamental-weight coordinates."""
    C = np.asarray(cartan, dtype=np.int16)
    n = C.shape[0]
    pts = np.ones((1, n), dtype=np.int8)
    visited = np.sort(_keys_of(pts))

    while pts.shape[0]:
        yield pts
        cand_pts = []
        for i in range(n):
            nxt = pts.astype(np.int16).copy()
            nxt -= pts[:, i : i + 1].astype(np.int16) * C[i][None, :]
            cand_pts.append(nxt.astype(np.int8))
        allpts = np.concatenate(cand_pts, axis=0)
        keys = _keys_of(allpts)
        uniq_keys, first = np.unique(keys, return_index=True)
        pos = np.searchsorted(visited, uniq_keys)
        pos = np.minimum(pos, len(visited) - 1)
        fresh = visited[pos] != uniq_keys
        pts = allpts[first[fresh]]
        visited = np.sort(np.concatenate([visited, uniq_keys[fresh]]))


def descent_distribution(cartan: np.ndarray, progress: Callable[[int], None] | None = None) -> list[int]:
    """Histogram of the number of negative coordinates over the rho-orbit.

    A coordinate of w(rho) is negative exactly when the corresponding
    simple reflection shortens w on the left, so this is the descent-count
    distribution over the whole group.
    """
    n = np.asarray(cartan).shape[0]
    hist = np.zeros(n + 1, dtype=object)
    total = 0
    for pts in orbit_levels(cartan):
        counts = (pts < 0).sum(axis=1)
        binned = np.bincount(counts, minlength=n + 1)
        for j, v in enumerate(binned):
            hist[j] += int(v)
        total += pts.shape[0]
        if progress is not None:
            progress(total)
    return [int(v) for v in hist]


def _eliminate_mod_p(mats: np.ndarray, p: int, pivot_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce a batch of small integer matrices modulo a prime.

    Pivots are taken only in the first ``pivot_cols`` columns.  Returns the
    reduced matrices and the (batch, rows) mask of pivot rows; every other
    row is zero in the pivot columns, and the mask's row count is the rank
    of that left block modulo p.  Pivot rows are marked used instead of
    swapped, and elimination uses cross multiplication
    (row*pivot - factor*pivotrow) so no modular inverses are needed.  All
    products stay below p**2 < 2**63.
    """
    A = np.mod(mats.astype(np.int64), p)
    bsz, rows, _ = A.shape
    used = np.zeros((bsz, rows), dtype=bool)
    bidx = np.arange(bsz)
    for col in range(pivot_cols):
        colv = A[:, :, col]
        eligible = ~used & (colv != 0)
        has = eligible.any(axis=1)
        piv = np.argmax(eligible, axis=1)
        pivot_val = colv[bidx, piv]
        pivot_row = A[bidx, piv, :]
        transform = ~used & has[:, None]
        transform[bidx, piv] = False
        factors = np.where(transform, colv, 0)
        scale = np.where(transform, pivot_val[:, None], 1)
        A *= scale[:, :, None]
        A -= factors[:, :, None] * pivot_row[:, None, :]
        np.mod(A, p, out=A)
        used[bidx, piv] |= has
    return A, used


def _hadamard_bound(max_entry: int, n: int) -> int:
    """Bound on |det| of an n x n integer matrix with entries of at most
    ``max_entry`` in absolute value; it also bounds every smaller minor."""
    norm_sq = n * max_entry * max_entry
    return math.isqrt(norm_sq**n) + 1


def _as_int8(mats: np.ndarray) -> np.ndarray:
    if np.abs(mats).max(initial=0) > np.iinfo(np.int8).max:
        raise ConsistencyError("group element entry does not fit in int8")
    return mats.astype(np.int8)


def _root_members(shifted: np.ndarray, roots: np.ndarray, k: int) -> np.ndarray:
    """(batch, roots) mask of the positive roots lying in the column space
    of each ``w - I`` in ``shifted``; every w must have reflection length k.

    Reducing ``[w - I | I]`` records the row operations in the right
    block; applied to the roots they give the reduced ``[w - I | roots]``.
    A root is a member when every pivot-free row of that is zero in its
    column, modulo both primes.  Entries of the product stay below
    n * max(root entry) * p, under 2**37 for ADE roots (entries <= 6).
    """
    bsz, n, _ = shifted.shape
    max_entry = max(int(np.abs(shifted).max(initial=0)), int(roots.max(initial=0)))
    if _hadamard_bound(max_entry, n) >= _P1 * _P2:
        raise ConsistencyError("matrix entries too large for the two-prime membership test")
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), (bsz, n, n))
    aug = np.concatenate([shifted, eye], axis=2)
    members = np.ones((bsz, roots.shape[0]), dtype=bool)
    for p in (_P1, _P2):
        reduced, used = _eliminate_mod_p(aug, p, n)
        if (used.sum(axis=1) != k).any():
            raise ConsistencyError(f"an element at interval level {k} has another reflection length")
        image = np.mod(reduced[:, :, n:] @ roots.T, p)
        stray = (image != 0) & ~used[:, :, None]
        members &= ~stray.any(axis=1)
    return members


def interval_walk(
    cartan: np.ndarray,
    coxeter_matrix: np.ndarray,
    progress: Callable[[int], None] | None = None,
) -> list[int]:
    """Distribution of reflection length over the absolute-order interval [1, c].

    Walks down from ``{c}`` one reflection length at a time: the level
    below k is every s_alpha * w with w at level k and alpha a positive
    root in Im(w - I), deduplicated.  Entry k of the result is the size of
    level k; ``progress`` gets the running element count after each level.
    Raises ConsistencyError if a level's reflection lengths are not what
    the walk assumes or the last level is not the identity.
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
        b, j = np.nonzero(_root_members(w - eye[None, :, :], roots, k))
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
