"""One-element definitions, recurrences and closed forms that the tests
hold the package's block kernels and engine to.  Nothing in ``taupoly``
uses them."""

from __future__ import annotations

import itertools
import re
from functools import cache
from math import comb
from typing import Iterable, Iterator

from taupoly.oracles import narayana_a
from taupoly.polynomials import ONE, Polynomial

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


# Closed forms for A_n and D_n at any rank, from the paper's explicit
# formulas; they share nothing with the engine's diagrams or recursion.


@cache
def closed_h(family: str, letter: str, m: int) -> Polynomial:
    """The h-polynomial of A_m (m >= 0) or D_m (m >= 2, with D_2 = A1xA1
    and D_3 = A3): the descents over the symmetric or the even-signed
    permutations (preprojective), or the Narayana numbers (path), those
    of type D being C(m,k)^2 - m/(m-1) C(m-1,k) C(m-1,k-1) (Fomin and
    Reading, "Root systems and generalized associahedra", 2005)."""
    if family == "preprojective":
        return Polynomial(_eulerian_sym(m + 1) if letter == "A" else _eulerian_even_signed(m))
    if letter == "A":
        return narayana_a(m)
    coeffs = []
    for k in range(m + 1):
        correction, rest = divmod(m * comb(m - 1, k) * (comb(m - 1, k - 1) if k else 0), m - 1)
        assert rest == 0, (m, k)
        coeffs.append(comb(m, k) ** 2 - correction)
    return Polynomial(coeffs)


@cache
def _closed_f(family: str, letter: str, m: int) -> Polynomial:
    return closed_h(family, letter, m).shifted(1)


def closed_links(letter: str, n: int) -> list[tuple[int, int, list[tuple[str, int]]]]:
    """For each vertex l of A_n or D_n: twice the height of w_l (the
    Bourbaki heights l(n+1-l)/2 on A_n; i(n-i) + C(i,2) at the i-th chain
    vertex of D_n from its far end, n(n-1)/4 at a fork), the coset count
    [W : W(diagram minus l)], and the deleted diagram."""
    if letter == "A":
        return [
            (ell * (n + 1 - ell), comb(n + 1, ell), [("A", ell - 1), ("A", n - ell)])
            for ell in range(1, n + 1)
        ]
    chain = [
        (2 * i * (n - i) + i * (i - 1), 2**i * comb(n, i), [("A", i - 1), ("D", n - i)])
        for i in range(1, n - 1)
    ]
    return chain + 2 * [(n * (n - 1) // 2, 2 ** (n - 1), [("A", n - 1)])]


def closed_d(family: str, letter: str, n: int) -> Polynomial:
    """d = sum over vertices l of Dim_l * h(diagram minus l; t+1), with
    Dim_l = [W : W(diagram minus l)] ht(w_l) (preprojective) or 2 ht(w_l)
    (path)."""
    d = Polynomial()
    for double_height, cosets, minor in closed_links(letter, n):
        dim, rest = divmod((cosets if family == "preprojective" else 2) * double_height, 2)
        assert rest == 0, (letter, n, double_height)
        f = ONE
        for part in minor:
            f = f * _closed_f(family, *part)
        d = d + dim * f
    return d


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
