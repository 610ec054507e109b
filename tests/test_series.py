from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taupoly import series
from taupoly.errors import InsufficientTerms
from taupoly.formulas import PATH, PREPROJECTIVE
from taupoly.polynomials import ONE, T, ZERO, Polynomial
from taupoly.series import (
    TruncatedSeries,
    type_a_family,
    type_a_series,
    verify_all_identities,
    verify_dpoly_genfun_path,
    verify_dpoly_genfun_ppa,
    verify_euler_closed_form,
    verify_identity_euler_ode,
    verify_identity_narayana_quadratic,
    verify_narayana_sqrt_reconstruction,
    verify_ppa_closed_form_variants,
)


def P(*coeffs):
    return Polynomial(coeffs)


def test_from_polynomials():
    s = TruncatedSeries.from_polynomials([P(1), P(1)], True, 1)
    assert s.coeffs == (P(1), P(1))
    with pytest.raises(InsufficientTerms):
        TruncatedSeries.from_polynomials([P(1)], False, 1)


def test_exponential_scaling():
    # an exponential series stores n! [z^n], so the terms are kept as given
    s = TruncatedSeries.from_polynomials([P(1), P(1), P(0, 6)], True, 2)
    assert s.exponential
    assert s.coeffs[2] == P(0, 6)


def test_mul():
    one_plus = TruncatedSeries([P(1), P(1)], 2)
    one_minus = TruncatedSeries([P(1), P(-1)], 2)
    assert (one_plus * one_minus).coeffs == (P(1), P(), P(-1))
    # order truncates to the smaller operand
    short = TruncatedSeries([P(1), P(1)], 1)
    assert (one_plus * short).order == 1
    # exponential products are binomial convolutions: e^z e^z = e^{2z}
    e = TruncatedSeries.exp_of_zt(ONE, 4)
    assert e * e == TruncatedSeries.exp_of_zt(P(2), 4)


def test_mixing_kinds_is_a_type_error():
    ordinary = TruncatedSeries([ONE], 2)
    exponential = TruncatedSeries([ONE], 2, True)
    assert ordinary != exponential
    for combine in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a.first_mismatch(b),
    ):
        with pytest.raises(TypeError):
            combine(ordinary, exponential)


def test_derivative():
    s = TruncatedSeries([P(1), P(1), P(1)], 2)
    assert s.derivative_z().coeffs == (P(1), P(2))
    # d/dz e^z = e^z: the exponential derivative drops the first term
    e = TruncatedSeries([P(1), P(1), P(1)], 2, True)
    assert e.derivative_z() == TruncatedSeries([P(1), P(1)], 1, True)
    with pytest.raises(InsufficientTerms):
        TruncatedSeries([ONE], 0).derivative_z()


def test_exp_of_zt():
    assert TruncatedSeries.exp_of_zt(ZERO, 3) == TruncatedSeries([ONE], 3, True)
    e = TruncatedSeries.exp_of_zt(T, 2)
    assert e.coeffs == (P(1), P(0, 1), P(0, 0, 1))


def test_shift_z():
    s = TruncatedSeries([P(1), P(2), P(3)], 2)
    assert s.shift_z(1) == TruncatedSeries([P(), P(1), P(2), P(3)], 3)
    # term n of z*f is n * f_(n-1) in the n!-scaled form
    e = TruncatedSeries([P(1), P(2), P(3)], 2, True)
    assert e.shift_z(1).coeffs == (P(), P(1), P(4), P(9))


def test_equality_requires_same_order():
    a = TruncatedSeries([ONE], 3)
    assert a != TruncatedSeries([ONE], 4)
    assert a == TruncatedSeries([ONE, ZERO, ZERO, ZERO, T], 3)


def test_descent_egf_terms():
    s = type_a_series(PREPROJECTIVE, "h", 3)
    assert s.exponential
    assert s.coeffs == (P(1), P(1), P(1, 1), P(1, 4, 1))


def test_narayana_ogf_terms():
    c = type_a_series(PATH, "h", 4)
    assert not c.exponential
    assert c.coeffs[0] == P(1)
    assert c.coeffs[1] == P(1)
    assert c.coeffs[2] == P(1, 1)
    assert c.coeffs[4] == P(1, 6, 6, 1)


def test_dim_families_start_at_zero():
    assert type_a_family(PREPROJECTIVE, "d", 3) == [P(), P(), P(1)]
    assert type_a_family(PATH, "d", 3)[1] == P()
    assert type_a_family(PATH, "d", 4)[3] == P(8, 4)


def test_ppa_dim_egf_coefficients():
    s = type_a_series(PREPROJECTIVE, "d", 4)
    assert s.coeffs[2] == P(1)
    assert s.coeffs[3] == P(12, 6)
    assert s.coeffs[4] == P(120, 120, 24)
    shifted = type_a_series(PREPROJECTIVE, "d", 4, shift=-1)
    assert shifted.coeffs[4] == P(24, 72, 24)


def test_path_dim_ogf_coefficients():
    s = type_a_series(PATH, "d", 4)
    assert s.coeffs[3] == P(8, 4)
    assert type_a_series(PATH, "d", 4, shift=-1).coeffs[4] == P(10, 26, 10)


# -- the integer series against the textbook definitions over Fraction --


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _z_coefficients(s):
    """[z^n] of each term as a list of Fractions: n! is divided out of an
    exponential series."""
    return [
        _strip(Fraction(c, factorial(n) if s.exponential else 1) for c in term)
        for n, term in enumerate(s.coeffs)
    ]


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _plus(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _strip(out)


# small and past-64-bit coefficients, zero terms, orders 0-13
coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
terms = st.lists(st.lists(coefficients, max_size=4).map(Polynomial), min_size=1, max_size=14)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), terms, terms, st.integers(0, 3))
# products whose largest coefficient is the packing bound itself: -2^140,
# and the weight C(13, 6) of z^6 * z^7 between exponential series
@example(False, [P(2**70)], [P(-(2**70))], 0)
@example(True, [ZERO] * 6 + [ONE] + [ZERO] * 7, [ZERO] * 7 + [ONE] + [ZERO] * 6, 0)
def test_integer_series_match_fraction_reference(exponential, a, b, k):
    f = TruncatedSeries(a, len(a) - 1, exponential)
    g = TruncatedSeries(b, len(b) - 1, exponential)
    fz, gz = _z_coefficients(f), _z_coefficients(g)
    product = []
    for n in range(min(f.order, g.order) + 1):
        total = []
        for i in range(n + 1):
            total = _plus(total, _times(fz[i], gz[n - i]))
        product.append(total)
    assert _z_coefficients(f * g) == product
    assert _z_coefficients(f.shift_z(k)) == [[]] * k + fz
    if f.order >= 1:
        derivative = [[c * (n + 1) for c in fz[n + 1]] for n in range(f.order)]
        assert _z_coefficients(f.derivative_z()) == derivative


def test_a_wrong_descent_term_fails_the_descent_identities(monkeypatch):
    # t added to the descent polynomial of S_3 (term 3 of the EGF)
    true_family = series.type_a_family

    def corrupted(family, kind, count):
        polys = true_family(family, kind, count)
        if (family, kind) == (PREPROJECTIVE, "h") and count > 3:
            polys[3] = polys[3] + T
        return polys

    monkeypatch.setattr(series, "type_a_family", corrupted)
    for check in (verify_identity_euler_ode, verify_euler_closed_form, verify_dpoly_genfun_ppa):
        report = check(6)
        assert not report.passed
        assert report.mismatch_power is not None
    assert verify_identity_narayana_quadratic(6).passed
    assert verify_narayana_sqrt_reconstruction(6).passed


@pytest.mark.parametrize("order", [1, 2, 6])
def test_euler_ode_small_orders(order):
    assert verify_identity_euler_ode(order).passed


@pytest.mark.parametrize("order", [1, 6, 12])
def test_narayana_quadratic_orders(order):
    assert verify_identity_narayana_quadratic(order).passed


@pytest.mark.parametrize("order", [2, 4, 10])
def test_ppa_genfun_orders(order):
    assert verify_dpoly_genfun_ppa(order).passed


@pytest.mark.parametrize("order", [2, 4, 12])
def test_path_genfun_orders(order):
    assert verify_dpoly_genfun_path(order).passed


def test_remaining_identities():
    assert verify_euler_closed_form(10).passed
    assert verify_narayana_sqrt_reconstruction(10).passed
    assert verify_ppa_closed_form_variants(12).passed


def test_verify_all():
    reports = verify_all_identities(10)
    assert len(reports) == 7
    assert all(r.passed for r in reports)
    for r in reports:
        payload = r.to_dict()
        assert payload["pass"] is True
        assert "identity" in payload


def test_report_carries_mismatch():
    # build a deliberately wrong comparison through the public helpers
    from taupoly.series import _report

    a = TruncatedSeries([P(1), P(2)], 1)
    b = TruncatedSeries([P(1), P(3)], 1)
    rep = _report("probe", a, b)
    assert not rep.passed
    assert rep.mismatch_power == 1
    assert rep.actual == "2"
    assert rep.expected == "3"
