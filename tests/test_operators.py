from fractions import Fraction as F

import pytest

from fdsolve.algebra import Poly
from fdsolve.operators import OperatorPoly, ZeroOperatorError, ZeroScaleError


def test_construction_and_degree():
    P = OperatorPoly(4, -5, 1)
    assert P.coeffs == (F(4), F(-5), F(1))
    assert P.degree == 2
    assert isinstance(P, Poly)
    assert P.as_poly() == Poly(4, -5, 1)
    assert OperatorPoly(4, -5, 1, 0).degree == 2  # trailing zeros trimmed


def test_zero_operator_rejected():
    with pytest.raises(ZeroOperatorError):
        OperatorPoly(0, 0)
    with pytest.raises(ZeroOperatorError):
        OperatorPoly()
    with pytest.raises(ZeroOperatorError):
        OperatorPoly.from_poly(Poly())


def test_characteristic_evaluation():
    P = OperatorPoly(4, -5, 1)
    assert P(3) == -2
    assert P(1) == 0
    assert P(F(1, 2)) == F(7, 4)


def test_scale_argument_frozen():
    P = OperatorPoly(4, -5, 1)
    assert str(P.scale_argument(3)) == "9*T^2 - 15*T + 4"
    assert P.scale_argument(3)(v := F(-1)) == P(3 * v) == 28
    assert str(P.scale_argument(F(1, 2))) == "1/4*T^2 - 5/2*T + 4"


def test_scale_argument_zero_rejected():
    with pytest.raises(ZeroScaleError):
        OperatorPoly(1, 1).scale_argument(0)


def test_scale_argument_composes():
    P = OperatorPoly(2, 0, -1, 3)
    assert P.scale_argument(2).scale_argument(F(1, 2)) == P


def test_taylor_shifted():
    P = OperatorPoly(4, -5, 1)
    assert P.taylor_shift(1) == Poly(0, -3, 1)
    assert P.taylor_shift(4) == Poly(0, 3, 1)


def test_reduce_shift():
    assert OperatorPoly(0, 0, -2, 1).reduce_shift() == (2, OperatorPoly(-2, 1))
    assert OperatorPoly(4, -5, 1).reduce_shift() == (0, OperatorPoly(4, -5, 1))


def test_root_splitting_stops_at_a_constant():
    # the whole operator is a power of the factor: splitting ends at degree 0
    assert OperatorPoly(0, 0, 1).reduce_shift() == (2, OperatorPoly(1))


def test_mul_and_pow():
    A = OperatorPoly(-1, 1)
    assert A * A == Poly(1, -2, 1) == A**2
    assert (A**3).coeffs == (F(-1), F(3), F(-3), F(1))


def test_display():
    assert str(OperatorPoly(4, -5, 1)) == "T^2 - 5*T + 4"
    assert str(OperatorPoly(0, -2, 1)) == "T^2 - 2*T"
    assert str(OperatorPoly(F(1, 2))) == "1/2"
