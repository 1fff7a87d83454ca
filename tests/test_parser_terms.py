"""One-term values in the parser: a number, the variable, and their products,
quotients by nonzero constants and powers are kept as (num/den) * t^k until a
sum or a richer value needs a `Poly`.  Each result, limit and error below is
the one the dense-`Poly` parser gave."""
from fractions import Fraction as F

import pytest

from fdsolve.algebra import Poly
from fdsolve.expr import SequenceExpr, Term, UnsupportedRhsError
from fdsolve.parser import ParseError, parse_expression

TOO_LARGE = "a power too large to compute (over 4001 coefficients or numbers over 2^20 bits)"


def polynomial(*coeffs):
    return SequenceExpr.of(Term(1, 1, Poly(*coeffs)))


@pytest.mark.parametrize("src,expected", [
    ("0^0", polynomial(1)),
    ("0^3", SequenceExpr.zero()),
    ("t^0", polynomial(1)),
    ("2^(4/2)", polynomial(4)),
    ("-t^2", polynomial(0, 0, -1)),
    ("2^-1^2", polynomial(F(1, 2))),
    ("3.0^2", polynomial(9)),
    ("(1/2)^-3", polynomial(8)),
    ("(2*t)^3", polynomial(0, 0, 0, 8)),
    ("(t/2)^2", polynomial(0, 0, F(1, 4))),
    ("2t^3/4", polynomial(0, 0, 0, F(1, 2))),
    ("(2/(-4))^3", polynomial(F(-1, 8))),
    ("(0*t^4000)^2", SequenceExpr.zero()),
    ("(0/7)^(10^100)", SequenceExpr.zero()),
])
def test_one_term_values(src, expected):
    assert parse_expression(src) == expected


@pytest.mark.parametrize("src,expected", [
    ("t^4000", polynomial(*[0] * 4000, 1)),
    ("2^524288", polynomial(2**524288)),
    ("(4/2)^524288", polynomial(2**524288)),
])
def test_powers_at_the_limits_are_admitted(src, expected):
    assert parse_expression(src) == expected


@pytest.mark.parametrize("src,offset", [("t^4001", 2), ("2^524289", 2), ("(4/2)^524289", 6)])
def test_powers_past_the_limits_are_refused(src, offset):
    # the bit length is taken on the base in lowest terms: 4/2 counts as 2
    with pytest.raises(UnsupportedRhsError) as exc:
        parse_expression(src)
    assert (exc.value.offset, str(exc.value)) == (offset, TOO_LARGE)


def test_a_fractional_exponent_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_expression("2^(3/2)")
    assert (exc.value.offset, str(exc.value)) == (2, "at byte 2: expected an integer exponent")


def test_a_negative_power_of_t_is_unsupported():
    with pytest.raises(UnsupportedRhsError) as exc:
        parse_expression("t^-1")
    assert (exc.value.offset, str(exc.value)) == (
        3, "negative powers are supported only for nonzero constants and geometric terms")


def test_a_sum_of_monomials_builds_linear_storage(monkeypatch):
    # the 4001-term sum of the CI step: the dense parser built 28,007 Polys of
    # 16,036,006 coefficient slots in all, since each t^k and c*t^k was dense
    make = Poly._make.__func__
    slots = []

    def counting(cls, nums, den):
        slots.append(len(nums))
        return make(cls, nums, den)

    monkeypatch.setattr(Poly, "_make", classmethod(counting))
    src = " + ".join(f"{k % 7 + 1}/{k % 5 + 1}*t^{k}" for k in range(4001))
    result = parse_expression(src)
    monkeypatch.undo()
    assert sum(slots) <= 4 * 4001
    assert result == polynomial(*(F(k % 7 + 1, k % 5 + 1) for k in range(4001)))
