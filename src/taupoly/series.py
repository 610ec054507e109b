"""Truncated formal power series in z over integer polynomials in t.

The series here verify generating-function identities by exact
coefficient comparison.  An ordinary series stores [z^n] as its term n,
an exponential one stores n! * [z^n]; every identity checked here has
integer terms in that form, so all arithmetic stays in
:class:`Polynomial`.  Closed forms involving division or square roots
are checked multiplicatively: denominators are cleared and square roots
squared, so no series is ever inverted.  Any mismatch in any coefficient
at any order is a hard failure; there are no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, perm

from .dynkin import DynkinDiagram
from .errors import InsufficientTerms
from .formulas import PATH, PREPROJECTIVE, d_polynomial, h_polynomial
from .polynomials import ONE, T, ZERO, Polynomial


class TruncatedSeries:
    """Power series in z with Polynomial terms, kept to order N.

    Term n is [z^n] of an ordinary series and n! * [z^n] of an exponential
    one, so the product of two exponential series is the binomial
    convolution.  Operations on two series of one kind truncate to the
    smaller order; mixing the kinds is a TypeError.  Equality is exact
    termwise equality at the same order and kind.
    """

    __slots__ = ("order", "coeffs", "exponential")

    def __init__(self, coeffs, order: int, exponential: bool = False):
        coeffs = list(coeffs[: order + 1])
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs + [ZERO] * (order + 1 - len(coeffs))))
        object.__setattr__(self, "exponential", exponential)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_polynomials(cls, polys, exponential: bool, order: int) -> "TruncatedSeries":
        """Series whose term n is polys[n]."""
        if len(polys) < order + 1:
            raise InsufficientTerms(
                f"need {order + 1} coefficient polynomials, got {len(polys)}"
            )
        return cls(polys, order, exponential)

    @classmethod
    def exp_of_zt(cls, lam: Polynomial, order: int) -> "TruncatedSeries":
        """exp(lam(t) * z), an exponential series with term n lam(t)^n."""
        out = [ONE]
        for _ in range(order):
            out.append(out[-1] * lam)
        return cls(out, order, True)

    # -- arithmetic -------------------------------------------------------

    def _common_order(self, other: "TruncatedSeries") -> int:
        if self.exponential != other.exponential:
            raise TypeError("cannot combine an ordinary series with an exponential one")
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._common_order(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], order, self.exponential
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.order, self.exponential)

    def __mul__(self, other):
        """Termwise by a scalar or a polynomial; by a series, the Cauchy
        product (binomially weighted between exponential series), with each
        term a(t) packed into the integer a(2^width).  Every output
        coefficient is at most B = (sum_i |a_i|_1)(sum_j |b_j|_1), times
        C(order, order // 2) if exponential, so with width = B.bit_length()
        + 2 each is one balanced base-2^width digit of its output term."""
        if isinstance(other, (int, Polynomial)):
            return TruncatedSeries([c * other for c in self.coeffs], self.order, self.exponential)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = self._common_order(other)
        a, b = self.coeffs[: order + 1], other.coeffs[: order + 1]
        bound = sum(sum(map(abs, c)) for c in a) * sum(sum(map(abs, c)) for c in b)
        width = (bound * (comb(order, order // 2) if self.exponential else 1)).bit_length() + 2
        a, b = [c(1 << width) for c in a], [c(1 << width) for c in b]
        weight = comb if self.exponential else lambda n, i: 1
        out = [sum(weight(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]
        return TruncatedSeries([_unpack(v, width) for v in out], order, self.exponential)

    __rmul__ = __mul__

    def shift_z(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k; the product is known to order + k."""
        out = [ZERO] * k + list(self.coeffs)
        if self.exponential:
            out = [c * perm(n, k) for n, c in enumerate(out)]
        return TruncatedSeries(out, self.order + k, self.exponential)

    def derivative_z(self) -> "TruncatedSeries":
        """Termwise z-derivative; the order drops by one."""
        if self.order < 1:
            raise InsufficientTerms("cannot differentiate an order-0 series")
        if self.exponential:
            out = self.coeffs[1:]
        else:
            out = [self.coeffs[n] * n for n in range(1, self.order + 1)]
        return TruncatedSeries(out, self.order - 1, self.exponential)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and (
            self.order, self.exponential, self.coeffs
        ) == (other.order, other.exponential, other.coeffs)

    def __hash__(self):
        return hash((self.order, self.exponential, self.coeffs))

    def first_mismatch(self, other: "TruncatedSeries") -> int | None:
        """Smallest z-power where the two series differ, up to the common
        order; None if they agree."""
        order = self._common_order(other)
        return next((n for n in range(order + 1) if self.coeffs[n] != other.coeffs[n]), None)

    def __repr__(self):
        kind = "exponential" if self.exponential else "ordinary"
        return f"TruncatedSeries(order={self.order}, {kind}, coeffs={[str(c) for c in self.coeffs]})"


def _unpack(value: int, width: int) -> Polynomial:
    """The p with p(2^width) = value and coefficients in [-2^(width-1), 2^(width-1))."""
    digits, half = [], 1 << (width - 1)
    while value:
        digits.append(((value + half) & (2 * half - 1)) - half)
        value = (value - digits[-1]) >> width
    return Polynomial(digits)


# ---------------------------------------------------------------------------
# The polynomial families entering the generating functions
# ---------------------------------------------------------------------------


def type_a_family(family: str, kind: str, count: int) -> list[Polynomial]:
    """The h- or d-polynomials (``kind`` "h" or "d") of the type A algebras
    of ``family``, rank n-1 at index n.  Indices 0 and 1 hold those of the
    empty diagram: 1 for h, 0 for d."""
    poly = h_polynomial if kind == "h" else d_polynomial
    empty = ONE if kind == "h" else ZERO
    return [poly(family, DynkinDiagram("A", n - 1)) if n > 1 else empty for n in range(count)]


def type_a_series(family: str, kind: str, order: int, *, shift: int = 0) -> TruncatedSeries:
    """Generating function of ``type_a_family`` with t -> t + shift applied
    to each term: exponential for the preprojective family (descent
    polynomials and doubled-quiver dimensions), ordinary for the path
    family (Narayana polynomials and path-algebra dimensions)."""
    polys = [p.shifted(shift) for p in type_a_family(family, kind, order + 1)]
    return TruncatedSeries.from_polynomials(polys, family == PREPROJECTIVE, order)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check."""

    name: str
    order: int
    passed: bool
    mismatch_power: int | None = None
    expected: str | None = None
    actual: str | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        out = {"identity": self.name, "order": self.order, "pass": self.passed}
        if not self.passed:
            out["first_failing_power"] = self.mismatch_power
            out["expected"] = self.expected
            out["actual"] = self.actual
        return out


def _report(name: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityReport:
    common = min(lhs.order, rhs.order)
    power = lhs.first_mismatch(rhs)
    if power is None:
        return IdentityReport(name, common, True)
    return IdentityReport(
        name,
        common,
        False,
        mismatch_power=power,
        expected=str(rhs.coeffs[power]),
        actual=str(lhs.coeffs[power]),
    )


_T4 = Polynomial((0, 0, 0, 0, 1))


def verify_identity_euler_ode(order: int) -> IdentityReport:
    """d/dz S = t S^2 + (1 - t) S for the descent-polynomial EGF."""
    s = type_a_series(PREPROJECTIVE, "h", order)
    return _report("euler-ode", s.derivative_z(), s * s * T + s * (ONE - T))


def verify_euler_closed_form(order: int) -> IdentityReport:
    """S * (t - exp(z(t-1))) = t - 1, the closed form with denominator cleared."""
    s = type_a_series(PREPROJECTIVE, "h", order)
    lhs = s * (TruncatedSeries([T], order, True) - TruncatedSeries.exp_of_zt(T - ONE, order))
    return _report("euler-closed-form", lhs, TruncatedSeries([T - ONE], order, True))


def verify_identity_narayana_quadratic(order: int) -> IdentityReport:
    """t z C^2 - (1 + z(t-1)) C + 1 = 0 for the Narayana OGF."""
    c = type_a_series(PATH, "h", order)
    lhs = (c * c * T).shift_z(1) - TruncatedSeries([ONE, T - ONE], order) * c
    lhs = lhs + TruncatedSeries([ONE], order)
    return _report("narayana-quadratic", lhs, TruncatedSeries([], order))


def verify_narayana_sqrt_reconstruction(order: int) -> IdentityReport:
    """(1 + z(t-1) - 2tzC)^2 = 1 - 2z(t+1) + z^2 (t-1)^2.

    The left side reconstructs the square root appearing in the closed
    form of the Narayana OGF (the power-series branch of the quadratic),
    so squaring it must recover the radicand.
    """
    c = type_a_series(PATH, "h", order)
    f = TruncatedSeries([ONE, T - ONE], order) - (c * T * 2).shift_z(1)
    rhs = TruncatedSeries([ONE, (ONE + T) * -2, (T - ONE) * (T - ONE)], order)
    return _report("narayana-sqrt-reconstruction", f * f, rhs)


def verify_dpoly_genfun_ppa(order: int) -> IdentityReport:
    """Two checks on the doubled-quiver dimension EGF D.

    With t -> t-1 it must satisfy 2 D = z^2 (dS/dz)^2, S the descent EGF;
    in the original variable the closed form is checked multiplicatively
    as D * 2 (t+1-e^{zt})^4 = z^2 t^4 e^{2zt}.
    """
    lhs = type_a_series(PREPROJECTIVE, "d", order, shift=-1) * 2
    ds = type_a_series(PREPROJECTIVE, "h", order).derivative_z()
    first = _report("ppa-dim-egf-vs-eulerian", lhs, (ds * ds).shift_z(2))
    if not first.passed:
        return first
    denom = TruncatedSeries([ONE + T], order, True) - TruncatedSeries.exp_of_zt(T, order)
    lhs2 = type_a_series(PREPROJECTIVE, "d", order) * 2 * denom * denom * denom * denom
    rhs2 = (TruncatedSeries.exp_of_zt(T * 2, order) * _T4).shift_z(2)
    second = _report("ppa-dim-egf-closed-form", lhs2, rhs2)
    if not second.passed:
        return second
    return IdentityReport("ppa-dim-egf", order, True)


def verify_dpoly_genfun_path(order: int) -> IdentityReport:
    """With t -> t-1 the path-family dimension OGF equals z^2 (dC/dz)^2."""
    lhs = type_a_series(PATH, "d", order, shift=-1)
    dc = type_a_series(PATH, "h", order).derivative_z()
    return _report("path-dim-ogf-vs-narayana", lhs, (dc * dc).shift_z(2))


def verify_ppa_closed_form_variants(order: int) -> IdentityReport:
    """The two published shapes of the doubled-quiver closed form agree:

    z^2 t^4 e^{2z(t+2)} (t+1-e^{zt})^4 = z^2 t^4 e^{2zt} (e^z(t+1)-e^{z(t+1)})^4,

    the cross-multiplied form of equality of the two quotients (they
    differ by e^{4z} in numerator and denominator).
    """
    exp = TruncatedSeries.exp_of_zt
    a = TruncatedSeries([ONE + T], order, True) - exp(T, order)
    lhs = (exp(Polynomial((4, 2)), order) * _T4).shift_z(2) * a * a * a * a
    b = exp(ONE, order) * (ONE + T) - exp(ONE + T, order)
    rhs = (exp(T * 2, order) * _T4).shift_z(2) * b * b * b * b
    return _report("ppa-closed-form-variants", lhs, rhs)


DEFAULT_ORDER = 10

ALL_IDENTITIES = (
    verify_identity_euler_ode,
    verify_euler_closed_form,
    verify_identity_narayana_quadratic,
    verify_narayana_sqrt_reconstruction,
    verify_dpoly_genfun_ppa,
    verify_dpoly_genfun_path,
    verify_ppa_closed_form_variants,
)


def verify_all_identities(order: int = DEFAULT_ORDER) -> list[IdentityReport]:
    return [check(order) for check in ALL_IDENTITIES]
