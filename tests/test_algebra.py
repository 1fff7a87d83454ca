import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsolve.algebra import (Poly, ZeroConstantTermError, falling_factorial_poly,
                             find_roots, reconstruction_error, series_inverse)
from fdsolve.solver import antidifference

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(rationals, max_size=5).map(Poly)


def test_construction_trims_trailing_zeros():
    assert Poly(1, 2, 0, 0).coeffs == (F(1), F(2))
    assert Poly() == Poly(0) == Poly(0, 0)
    assert Poly().degree == -1
    assert Poly(7).degree == 0
    assert Poly(0, 0, 3).lead == 3
    with pytest.raises(ValueError):
        Poly().lead


def test_accepts_iterable_and_strings():
    assert Poly([1, 2]) == Poly(1, 2)
    assert Poly("1/2", 1).coeffs == (F(1, 2), F(1))


def test_evaluation_exact():
    p = Poly(4, -5, 1)
    assert p(3) == -2
    assert p(F(1, 2)) == F(4, 1) - F(5, 2) + F(1, 4)


@given(polys, polys, rationals)
def test_ring_operations_agree_with_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (-p)(x) == -p(x)


@given(polys, rationals, rationals)
def test_taylor_shift_is_composition(p, a, x):
    assert p.taylor_shift(a)(x) == p(x + a)


@given(polys, rationals)
def test_taylor_shift_round_trip(p, a):
    assert p.taylor_shift(a).taylor_shift(-a) == p


def test_taylor_shift_frozen_cases():
    assert str(Poly(4, -5, 1).taylor_shift(1)) == "t^2 - 3*t"
    assert str(Poly(4, -4, 1).taylor_shift(2)) == "t^2"
    assert Poly(-2, 1).taylor_shift(2) == Poly(0, 1)


@given(polys)
def test_forward_difference_drops_degree(p):
    d = p.forward_difference()
    if p.degree >= 1:
        assert d.degree == p.degree - 1
    else:
        assert d.is_zero


def test_falling_factorial_basis_frozen():
    # t^2 = t + t*(t-1)
    assert Poly(0, 0, 1).to_falling_factorial() == (F(0), F(1), F(1))
    # t^3 = t + 3*t*(t-1) + t*(t-1)*(t-2)
    assert Poly(0, 0, 0, 1).to_falling_factorial() == (F(0), F(1), F(3), F(1))
    assert str(falling_factorial_poly(3)) == "t^3 - 3*t^2 + 2*t"
    assert falling_factorial_poly(0) == Poly(1)
    # m-fold antidifferences of a degree-6 polynomial, as computed by one
    # falling-factorial round trip per antidifference
    p = Poly(3, -1, F(1, 2), 0, 2, F(-2, 3), 1)
    assert str(antidifference(p, 3)) == (
        "1/504*t^9 - 29/1008*t^8 + 37/210*t^7 - 211/360*t^6 + 17/15*t^5"
        " - 47/36*t^4 + 949/630*t^3 - 10901/5040*t^2 + 1063/840*t")
    assert str(antidifference(p, 5)) == (
        "1/55440*t^11 - 47/90720*t^10 + 587/90720*t^9 - 139/3024*t^8"
        " + 3083/15120*t^7 - 421/720*t^6 + 8453/7560*t^5 - 28811/18144*t^4"
        " + 179089/90720*t^3 - 28187/15120*t^2 + 3607/4620*t")


@given(polys)
def test_falling_factorial_round_trip(p):
    assert Poly.from_falling_factorial(p.to_falling_factorial()) == p


def test_series_inverse_frozen():
    assert series_inverse(Poly(-2, 1), 1) == (F(-1, 2), F(-1, 4))
    assert series_inverse(Poly(-2, 1), 3) == (F(-1, 2), F(-1, 4), F(-1, 8), F(-1, 16))
    assert series_inverse(Poly(4), 2) == (F(1, 4), F(0), F(0))


def test_series_inverse_zero_constant_term():
    with pytest.raises(ZeroConstantTermError):
        series_inverse(Poly(0, 1), 2)
    with pytest.raises(ZeroConstantTermError):
        series_inverse(Poly(), 0)


@given(polys.filter(lambda q: not q.is_zero and q.coeffs[0] != 0),
       st.integers(min_value=0, max_value=6))
def test_series_inverse_is_reciprocal_mod_truncation(q, order):
    cs = series_inverse(q, order)
    # convolution with q must give 1, 0, 0, ... up to the truncation order
    for k in range(order + 1):
        conv = sum(q[j] * cs[k - j] for j in range(k + 1))
        assert conv == (1 if k == 0 else 0)


@given(polys.filter(lambda p: p.degree >= 1), rationals)
def test_deflate_inverts_linear_multiplication(p, r):
    assert (p * Poly(-r, 1)).deflate(r) == p


def test_deflate_rejects_non_roots():
    with pytest.raises(ValueError):
        Poly(1, 1).deflate(5)


class TestFindRoots:
    def test_distinct_rational(self):
        rs = find_roots(Poly(4, -5, 1))
        assert [(r.value, r.multiplicity, r.exact) for r in rs.roots] == \
            [(F(1), 1, True), (F(4), 1, True)]
        assert rs.tolerance is None and rs.is_exact

    def test_repeated_rational(self):
        rs = find_roots(Poly(4, -4, 1))
        assert [(r.value, r.multiplicity) for r in rs.roots] == [(F(2), 2)]

    def test_fractional_roots(self):
        rs = find_roots(Poly(1, -4, 4))  # (2t - 1)^2
        assert [(r.value, r.multiplicity) for r in rs.roots] == [(F(1, 2), 2)]

    def test_zero_roots_split_off(self):
        rs = find_roots(Poly(0, 0, -2, 1))  # t^2 (t - 2)
        assert [(r.value, r.multiplicity) for r in rs.roots] == [(F(0), 2), (F(2), 1)]

    def test_pure_power_of_t(self):
        rs = find_roots(Poly(0, 0, 0, 1))  # t^3
        assert [(r.value, r.multiplicity, r.exact) for r in rs.roots] == [(F(0), 3, True)]
        assert rs.tolerance is None

    def test_complex_pair(self):
        rs = find_roots(Poly(1, 0, 1))
        inexact = [r.value for r in rs.roots if not r.exact]
        assert len(inexact) == 2
        assert inexact[0] == inexact[1].conjugate()
        assert abs(inexact[1] - 1j) < 1e-9
        assert rs.tolerance is not None

    def test_real_irrational(self):
        rs = find_roots(Poly(-2, 0, 1))
        vals = [r.value for r in rs.roots]
        assert all(v.imag == 0.0 for v in vals)
        assert abs(vals[0].real + math.sqrt(2)) < 1e-9
        assert abs(vals[1].real - math.sqrt(2)) < 1e-9

    def test_repeated_irrational_cluster(self):
        p = Poly(-2, 0, 1) ** 2
        rs = find_roots(p)
        assert [r.multiplicity for r in rs.roots] == [2, 2]
        assert reconstruction_error(p, rs) < 1e-9

    def test_mixed_exact_and_numeric(self):
        p = Poly(-1, 1) * Poly(-2, 0, 1)
        rs = find_roots(p)
        assert [(r.exact, r.multiplicity) for r in rs.roots] == \
            [(True, 1), (False, 1), (False, 1)]
        assert reconstruction_error(p, rs) < 1e-9

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            find_roots(Poly(3))

    @given(st.lists(st.sampled_from([F(-2), F(-1), F(1, 2), F(1), F(3)]),
                    min_size=1, max_size=4),
           st.sampled_from([F(1), F(-2), F(1, 3)]))
    @settings(max_examples=60)
    def test_recovers_constructed_rational_roots(self, roots, lead):
        p = Poly(lead)
        for r in roots:
            p = p * Poly(-r, 1)
        rs = find_roots(p)
        found = {}
        for root in rs.roots:
            assert root.exact
            found[root.value] = root.multiplicity
        want = {}
        for r in roots:
            want[r] = want.get(r, 0) + 1
        assert found == want
        assert reconstruction_error(p, rs) == 0.0


def test_render():
    assert str(Poly(1, 2, 1)) == "t^2 + 2*t + 1"
    assert str(Poly(F(-1, 4), F(-1, 2))) == "-1/2*t - 1/4"
    assert str(Poly()) == "0"
    assert str(Poly(0, -1)) == "-t"
    assert str(Poly(0, 0, F(1, 2))) == "1/2*t^2"
    assert Poly(4, -5, 1).render("T") == "T^2 - 5*T + 4"
