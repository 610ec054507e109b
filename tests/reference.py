"""One-element definitions and recurrences that the tests hold the
package's block kernels and engine to.  Nothing in ``taupoly`` uses them."""

from __future__ import annotations


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
