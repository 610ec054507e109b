"""One-element definitions and recurrences that the tests hold the
package's block kernels and engine to.  Nothing in ``taupoly`` uses them."""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator

from taupoly.polynomials import Polynomial

East = 0
North = 1


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
        raise ValueError(f"path is not a ({s},{t}) rectangle path")
    height = 0
    area = 0
    for step in path:
        if step == North:
            height += 1
        else:
            area += height
    return area


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
        raise ValueError(f"corner path must have length {n - 1}")
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


_DECIMAL_RE = re.compile(r"^-?\d+$")


def polynomial_from_decimal_strings(strings: Iterable[str]) -> Polynomial:
    """The polynomial of ascending coefficients written as plain decimal
    integers, the JSON layout; ``int`` alone would also take "1_0"."""
    coeffs = []
    for s in strings:
        if not _DECIMAL_RE.match(s):
            raise ValueError(f"not a decimal integer string: {s!r}")
        coeffs.append(int(s))
    return Polynomial(coeffs)


def path_cartan_by_reachability(q) -> list[list[int]]:
    """Row i marks the vertices reachable from vertex i of an oriented
    quiver, grown arrow by arrow until nothing changes: the projectives
    of a tree-shaped quiver, where paths between two vertices are unique."""
    index = {v: k for k, v in enumerate(q.vertices)}
    C = [[0] * q.rank for _ in range(q.rank)]
    for v in q.vertices:
        reach = {v}
        changed = True
        while changed:
            changed = False
            for a, b in q.arrows:
                if a in reach and b not in reach:
                    reach.add(b)
                    changed = True
        for w in reach:
            C[index[v]][index[w]] = 1
    return C
