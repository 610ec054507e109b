import pytest
from hypothesis import given
from hypothesis import strategies as st

from taupoly.polynomials import ONE, ZERO, Polynomial

from reference import polynomial_from_decimal_strings

H_A3_PATH = Polynomial([1, 6, 6, 1])  # t^3 + 6t^2 + 6t + 1
F_A3_PATH = Polynomial([14, 21, 9, 1])  # t^3 + 9t^2 + 21t + 14
H_A3_PPA = Polynomial([1, 11, 11, 1])
F_A3_PPA = Polynomial([24, 36, 14, 1])

polys = st.builds(Polynomial, st.lists(st.integers(-50, 50), max_size=7))


def test_add_doubling_and_identity():
    p = Polynomial([1, 1])
    assert p + p == Polynomial([2, 2])
    assert ZERO + F_A3_PATH == F_A3_PATH


def test_add_spot_check_of_shift_pair():
    assert H_A3_PATH + F_A3_PATH == Polynomial([15, 27, 15, 2])


def test_mul_square_and_annihilator():
    p = Polynomial([1, 1])
    assert p * p == Polynomial([1, 2, 1])
    assert F_A3_PATH * ZERO == ZERO


def test_shift_worked_examples():
    assert H_A3_PATH.shifted(1) == F_A3_PATH
    assert H_A3_PPA.shifted(1) == F_A3_PPA
    assert F_A3_PATH.shifted(0) == F_A3_PATH


def test_shift_of_dimension_polynomial():
    d = Polynomial([120, 120, 24])
    assert d.shifted(-1) == Polynomial([24, 72, 24])


def test_evaluate():
    assert F_A3_PATH(0) == 14
    assert H_A3_PATH(1) == 14
    assert Polynomial([1, 2, 3])(-2) == 1 - 4 + 12


def test_palindromic():
    assert H_A3_PATH.is_palindromic(3)
    assert ONE.is_palindromic(0)
    assert Polynomial([24, 72, 24]).is_palindromic(2)
    assert not F_A3_PATH.is_palindromic(3)
    # missing coefficients read as zero
    assert not Polynomial([1, 1]).is_palindromic(3)
    assert ZERO.is_palindromic(4)
    with pytest.raises(ValueError):
        H_A3_PATH.is_palindromic(2)


def test_unimodal():
    assert Polynomial([1, 3, 1]).is_unimodal()
    assert not Polynomial([2, 1, 2]).is_unimodal()
    assert Polynomial([24, 72, 24]).is_unimodal()
    assert ZERO.is_unimodal()
    assert Polynomial([1, 1, 2]).is_unimodal()


def test_big_integers_stay_exact():
    big = 123112120320
    p = Polynomial([big, big * big])
    assert p(1) == big + big * big
    assert p.to_decimal_strings() == [str(big), str(big * big)]


def test_json_round_trip():
    strings = F_A3_PPA.to_decimal_strings()
    assert strings == ["24", "36", "14", "1"]
    assert polynomial_from_decimal_strings(strings) == F_A3_PPA
    with pytest.raises(ValueError):
        polynomial_from_decimal_strings(["1_0"])


def test_zero_polynomial_conventions():
    assert ZERO.degree == -1
    assert ZERO.coeffs == ()
    assert str(ZERO) == "0"
    assert ZERO.to_decimal_strings() == []


def test_normalization_strips_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0]).degree == -1


def test_str_rendering():
    assert str(Polynomial([120, 120, 24])) == "24t^2 + 120t + 120"
    assert str(Polynomial([-1, 1])) == "t - 1"
    assert str(Polynomial([0, -2])) == "-2t"


@given(polys)
def test_shift_round_trip(p):
    assert p.shifted(1).shifted(-1) == p


@given(polys, polys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, st.integers(-5, 5), st.integers(-5, 5))
def test_evaluate_after_shift(p, d, x):
    assert p.shifted(d)(x) == p(x + d)


@given(st.lists(st.integers(-(10**12), 10**12), max_size=25).map(Polynomial), st.integers(-3, 3))
def test_shift_of_degree_up_to_24_is_evaluation_at_25_points(p, d):
    # its values at 25 points fix a polynomial of degree at most 24
    shifted = p.shifted(d)
    assert shifted.degree == p.degree
    assert all(shifted(x) == p(x + d) for x in range(-12, 13))


@given(polys, polys, polys)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r

