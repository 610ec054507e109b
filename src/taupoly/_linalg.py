"""Small exact linear algebra over the integers and rationals."""

from __future__ import annotations

from fractions import Fraction


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


def rational_solve(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """The solution x of matrix . x = rhs, exact; raises on singular input.

    Elimination touches only rows with a nonzero entry below the pivot,
    so a Cartan matrix of a tree in its vertex order takes about n^2
    steps, not n^3.

    >>> rational_solve([[2, -1], [-1, 2]], [1, 1])
    [Fraction(1, 1), Fraction(1, 1)]
    """
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[col])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        tail = sum(rows[i][j] * x[j] for j in range(i + 1, n) if rows[i][j])
        x[i] = (rows[i][n] - tail) / rows[i][i]
    return x


def integer_inverse(matrix: list[list[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as integers."""
    n = len(matrix)
    columns = [rational_solve(matrix, [int(i == j) for i in range(n)]) for j in range(n)]
    out = []
    for row in zip(*columns):
        if any(v.denominator != 1 for v in row):
            raise ValueError("matrix is not unimodular")
        out.append([int(v) for v in row])
    return out


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def row_times_mat(v: list[int], m: list[list[int]]) -> list[int]:
    n = len(m[0])
    return [sum(v[k] * m[k][j] for k in range(len(v))) for j in range(n)]
