"""Exact univariate polynomial arithmetic over the integers.

:class:`Polynomial` is a dense coefficient list over arbitrary-precision
integers.  Every counting polynomial in the package (dimension,
face-count, descent, Narayana) lives here, and so do the terms of the
generating functions, which store n! * [z^n] when exponential.  The
largest table entries are around ``2.1e12`` and intermediate products in
the oracles go well past 64 bits, so Python integers are mandatory, not a
convenience.  Values are immutable and hashable; all operations return
fresh values.  ``convolve`` is the one multiplication of coefficient
sequences: ``Polynomial`` uses it, and so does the engine on plain lists.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Polynomial:
    """Dense polynomial in one variable t with integer coefficients.

    Coefficients are stored ascending in the power of t and the trailing
    (highest-index) stored coefficient is nonzero; the zero polynomial is
    the empty tuple.  The degree of the zero polynomial is -1, which is
    used internally and never surfaces in output.

    >>> p = Polynomial([1, 6, 6, 1])
    >>> str(p)
    't^3 + 6t^2 + 6t + 1'
    >>> p(1)
    14
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        tup = tuple(int(c) for c in coeffs)
        n = len(tup)
        while n > 0 and tup[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", tup[:n])

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def coefficient(self, power: int) -> int:
        """Coefficient of t**power, 0 beyond the stored range."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def shifted(self, delta: int) -> "Polynomial":
        """Return p(t + delta), computed exactly by Horner in (t + delta).

        >>> str(Polynomial([1, 6, 6, 1]).shifted(1))
        't^3 + 9t^2 + 21t + 14'
        """
        out: list[int] = []
        for c in reversed(self.coeffs):
            # out <- out*(t+delta) + c, in place from the top coefficient down
            out.append(0)
            for i in range(len(out) - 1, 0, -1):
                out[i] = out[i - 1] + delta * out[i]
            out[0] = delta * out[0] + c
        return Polynomial(out)

    # -- predicates ---------------------------------------------------

    def is_palindromic(self, degree: int | None = None) -> bool:
        """True iff a_i == a_(degree-i) for all i, missing coefficients read as 0.

        ``degree`` defaults to the actual degree and must not be smaller.
        """
        if degree is None:
            degree = max(self.degree, 0)
        if degree < self.degree:
            raise ValueError("degree must be at least the degree of the polynomial")
        return all(
            self.coefficient(i) == self.coefficient(degree - i)
            for i in range(degree // 2 + 1)
        )

    def is_unimodal(self) -> bool:
        """True iff the coefficient sequence rises weakly, then falls weakly."""
        seq = self.coeffs
        falling = False
        for i in range(len(seq) - 1):
            if seq[i + 1] < seq[i]:
                falling = True
            elif seq[i + 1] > seq[i] and falling:
                return False
        return True

    # -- serialization ------------------------------------------------

    def to_decimal_strings(self) -> list[str]:
        """JSON form: ascending coefficients as decimal strings.

        Strings rather than numbers keep values past 2**53 exact for any
        JSON consumer.
        """
        return [str(c) for c in self.coeffs]

    # -- dunders --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return _render(self.coeffs)


def convolve(a, b) -> list[int]:
    """The ascending coefficients of the product of two polynomials given
    by their ascending coefficients; empty if either is.

    >>> convolve((1, 1), (1, 2, 1))
    [1, 3, 3, 1]
    """
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b, i):
            out[j] += ca * cb
    return out


ZERO = Polynomial()
ONE = Polynomial((1,))
T = Polynomial((0, 1))


def _render(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if power == 0:
            body = str(mag)
        else:
            tpow = "t" if power == 1 else f"t^{power}"
            body = tpow if mag == 1 else f"{mag}{tpow}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
